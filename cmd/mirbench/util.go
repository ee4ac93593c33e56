package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"mir/internal/core"
	"mir/internal/data"
	"mir/internal/geom"
	"mir/internal/topk"
)

// config carries the scaled parameter grid of Table 2.
type config struct {
	scale float64
	seed  int64

	nP int // default product cardinality (paper: 1.0M)
	nU int // default user cardinality (paper: 10K)
	d  int // default dimensionality
	k  int // default top-k size
}

func newConfig(scale float64, paper bool, seed int64) config {
	if paper {
		scale = 1
	}
	if scale <= 0 {
		scale = 0.01
	}
	cfg := config{scale: scale, seed: seed}
	cfg.nP = scaled(1_000_000, scale, 500)
	cfg.nU = scaled(10_000, scale, 60)
	// The paper's default dimensionality is 4. A halfspace arrangement in
	// d=4 over hundreds of users is out of reach for a scaled single-core
	// run, so reduced scales default to d=3; -paper restores d=4.
	cfg.d = 4
	if scale < 0.1 {
		cfg.d = 3
	}
	cfg.k = 10
	return cfg
}

// uFor shrinks the default user count for high dimensionalities: the
// arrangement (and thus the runtime) grows exponentially with d, so the
// d-sweeps sample fewer users per added dimension. Each row of a d-sweep
// reports the |U| it actually used.
func (c config) uFor(d int) int {
	nU := c.nU
	for dd := 4; dd <= d; dd++ {
		nU /= 2
	}
	if nU < 16 {
		nU = 16
	}
	return nU
}

func scaled(paper int, scale float64, min int) int {
	n := int(float64(paper) * scale)
	if n < min {
		n = min
	}
	return n
}

// rng returns a deterministic generator offset from the config seed so
// that each experiment draws an independent stream.
func (c config) rng(offset int64) *rand.Rand {
	return rand.New(rand.NewSource(c.seed + offset*1_000_003))
}

// products generates a product set by distribution name.
func (c config) products(kind string, n, d int, rng *rand.Rand) []geom.Vector {
	switch kind {
	case "COR":
		return data.Correlated(rng, n, d)
	case "ANTI":
		return data.AntiCorrelated(rng, n, d)
	case "HOTEL":
		return projectTo(data.HotelSet(rng, n), d)
	case "HOUSE":
		return projectTo(data.HouseSet(rng, n), d)
	case "NBA":
		return projectTo(data.NBASet(rng, n), d)
	case "TA":
		ps, _ := data.TripAdvisor(rng, n, 1)
		return projectTo(ps, d)
	default: // IND
		return data.Independent(rng, n, d)
	}
}

// users generates a user weight set by distribution name.
func (c config) users(kind string, n, d int, rng *rand.Rand) []geom.Vector {
	switch kind {
	case "UN":
		return data.UniformUsers(rng, n, d)
	case "TA":
		_, ws := data.TripAdvisor(rng, 1, n)
		return projectUsers(ws, d)
	default: // CL
		return data.ClusteredUsers(rng, n, d, 5, 0.05)
	}
}

// projectTo keeps the first d attributes (for datasets with fixed native
// dimensionality, mirroring the paper's attribute-subset runs).
func projectTo(ps []geom.Vector, d int) []geom.Vector {
	if len(ps) == 0 || len(ps[0]) == d {
		return ps
	}
	if len(ps[0]) < d {
		panic(fmt.Sprintf("mirbench: dataset has %d attributes, need %d", len(ps[0]), d))
	}
	out := make([]geom.Vector, len(ps))
	for i, p := range ps {
		out[i] = p[:d]
	}
	return out
}

func projectUsers(ws []geom.Vector, d int) []geom.Vector {
	if len(ws) == 0 || len(ws[0]) == d {
		return ws
	}
	out := make([]geom.Vector, len(ws))
	for i, w := range ws {
		v := make(geom.Vector, d)
		s := 0.0
		for j := 0; j < d; j++ {
			v[j] = w[j]
			s += w[j]
		}
		if s <= 0 {
			for j := range v {
				v[j] = 1 / float64(d)
			}
		} else {
			for j := range v {
				v[j] /= s
			}
		}
		out[i] = v
	}
	return out
}

// instance assembles a preprocessed mIR instance.
func (c config) instance(pKind, uKind string, nP, nU, d, k int, off int64) *core.Instance {
	rng := c.rng(off)
	ps := c.products(pKind, nP, d, rng)
	us := data.WithK(c.users(uKind, nU, d, rng), k)
	inst, err := core.NewInstance(ps, us)
	if err != nil {
		panic(err)
	}
	return inst
}

// hostMeta records the measuring host's facts at the top of every
// BENCH_* report: toolchain, platform, and CPU count, so a committed wall
// number can be read against the machine that produced it.
type hostMeta struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
}

// currentHost snapshots the running machine for a fresh report.
func currentHost() hostMeta {
	return hostMeta{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
}

// timeIt runs f and returns the wall-clock seconds.
func timeIt(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// memMB returns current live-heap megabytes after a GC — the
// memory-consumption proxy for Figure 9.
func memMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// mFracs is the paper's m sweep (fractions of |U|).
var mFracs = []float64{0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9}

func mOf(frac float64, nU int) int {
	m := int(frac * float64(nU))
	if m < 1 {
		m = 1
	}
	if m > nU {
		m = nU
	}
	return m
}

// header prints an aligned column header.
func header(cols ...string) {
	for _, c := range cols {
		fmt.Printf("%14s", c)
	}
	fmt.Println()
}

func row(vals ...interface{}) {
	for _, v := range vals {
		switch x := v.(type) {
		case float64:
			fmt.Printf("%14.4f", x)
		case string:
			fmt.Printf("%14s", x)
		default:
			fmt.Printf("%14v", x)
		}
	}
	fmt.Println()
}

// mustUsers attaches k and builds user prefs.
func withK(ws []geom.Vector, k int) []topk.UserPref { return data.WithK(ws, k) }
