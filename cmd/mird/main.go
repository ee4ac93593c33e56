// Command mird is the standing mIR daemon: it owns a live m-impact
// region over a dynamic user population and serves it over HTTP.
//
// Population events are ingested through a bounded coalescing queue —
// a burst that arrives while a maintenance pass runs is applied by the
// next pass, event by event, and published as one snapshot and epoch,
// with a region byte-identical to one-at-a-time application. Reads are
// answered from epoch-stamped immutable snapshots and never block
// ingestion.
//
// Endpoints:
//
//	POST   /users                {"weights":[...],"k":5} -> 202 {"handle":h}
//	DELETE /users/{handle}       retire a user            -> 202
//	GET    /region               current region cells (H-representations)
//	GET    /coverage?point=x,y   coverage / membership / boundary gap
//	GET    /stats                epoch, population, queue depth, counters
//	GET    /influence/topn?n=5   most influential products
//	GET    /watch?product=3      SSE alerts on region/membership changes
//
// A full ingest queue answers 429 with Retry-After — backpressure, not
// buffering without bound — and an oversized arrival body answers 413.
// On SIGINT/SIGTERM the daemon stops accepting events, applies
// everything already accepted, and exits.
//
// The dataset comes from CSV files (-products/-users) or generation
// (-gen-products/-gen-users with -n/-u/-d/-k/-seed), exactly as in
// mircli.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mir"
)

// Connection timeouts bound slow clients. There is deliberately no
// WriteTimeout: /watch is a long-lived SSE stream.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mird: ")

	addr := flag.String("addr", "localhost:7017", "listen address")
	productsFile := flag.String("products", "", "CSV file of products")
	usersFile := flag.String("users", "", "CSV file of users (k + weights per row)")
	genProducts := flag.String("gen-products", "IND", "generate products: IND, COR, ANTI")
	genUsers := flag.String("gen-users", "CL", "generate users: CL, UN")
	n := flag.Int("n", 10000, "generated product count")
	u := flag.Int("u", 500, "generated user count")
	d := flag.Int("d", 4, "generated dimensionality")
	k := flag.Int("k", 10, "generated per-user k")
	seed := flag.Int64("seed", 1, "generation seed")
	m := flag.Int("m", 0, "coverage threshold (default |U|/2)")
	queueCap := flag.Int("queue", 1024, "ingest queue capacity (backpressure bound)")
	workers := flag.Int("workers", 0, "maintenance worker count (0 = all cores)")
	flag.Parse()

	products, users := loadData(*productsFile, *usersFile, *genProducts, *genUsers, *n, *u, *d, *k, *seed)
	if *m == 0 {
		*m = len(users) / 2
		if *m < 1 {
			*m = 1
		}
	}

	t0 := time.Now()
	mo, err := mir.NewMonitorOptions(products, users, *m, &mir.Options{Workers: *workers})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("initial region: |P|=%d |U|=%d d=%d m=%d, %d cells in %v",
		len(products), len(users), len(products[0]), *m, mo.Region().NumCells(), time.Since(t0))

	srv := newServer(mo, products, *queueCap)
	srv.start()
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	go func() {
		log.Printf("listening on http://%s", *addr)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("shutting down: draining accepted events")
	srv.stop() // apply everything accepted, then stop the writer
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	log.Printf("final state: %d users, epoch %d", mo.NumUsers(), srv.cur.Load().epoch)
}

// loadData mirrors mircli's data sourcing.
func loadData(pFile, uFile, genP, genU string, n, u, d, k int, seed int64) ([][]float64, []mir.User) {
	if (pFile == "") != (uFile == "") {
		log.Fatal("provide both -products and -users, or neither")
	}
	if pFile != "" {
		products, err := mir.LoadProductsCSV(pFile)
		if err != nil {
			log.Fatal(err)
		}
		users, err := mir.LoadUsersCSV(uFile)
		if err != nil {
			log.Fatal(err)
		}
		return products, users
	}
	var pd mir.ProductDist
	switch strings.ToUpper(genP) {
	case "COR":
		pd = mir.Correlated
	case "ANTI":
		pd = mir.AntiCorrelated
	default:
		pd = mir.Independent
	}
	ud := mir.Clustered
	if strings.EqualFold(genU, "UN") {
		ud = mir.Uniform
	}
	return mir.SynthProducts(pd, n, d, seed), mir.SynthUsers(ud, u, d, k, seed+1)
}
