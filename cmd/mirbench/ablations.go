package main

import (
	"mir/internal/core"
	"mir/internal/data"
	"mir/internal/topk"
)

func init() {
	register("16a", "specialized vs generic AA in d=2, varying |U| (+cells)", fig16a)
	register("16b", "inner-group processing on/off, varying m (+containment tests)", fig16b)
	register("16c", "fast geometric testing on/off, varying m", fig16c)
	register("16d", "early reporting / early elimination ratios vs m", fig16d)
	register("17a", "group-choice strategy: largest vs smallest vs round-robin", fig17a)
	register("17b", "diverse per-user k: fixed vs uniform vs normal", fig17b)
}

func fig16a(cfg config) {
	header("|U|", "special(s)", "cells", "generic(s)", "cells")
	for _, mul := range []float64{0.1, 0.5, 1, 2, 4} {
		nU := int(float64(cfg.nU) * mul)
		if nU < 10 {
			nU = 10
		}
		inst := cfg.instance("IND", "CL", cfg.nP, nU, 2, cfg.k, int64(160+int(10*mul)))
		m := mOf(0.5, len(inst.Users))
		var spec, gen *core.Region
		sSecs := timeIt(func() { spec = mustAA(inst, m, core.Options{Workers: 1}) })
		gSecs := timeIt(func() { gen = mustAA(inst, m, core.Options{Workers: 1, Disable2D: true}) })
		row(len(inst.Users), sSecs, spec.Stats.Cells, gSecs, gen.Stats.Cells)
	}
}

func fig16b(cfg config) {
	inst := cfg.instance("IND", "CL", cfg.nP, cfg.nU, cfg.d, cfg.k, 165)
	header("m/|U|", "with(s)", "tests", "without(s)", "tests")
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		m := mOf(frac, len(inst.Users))
		var with, without *core.Region
		wSecs := timeIt(func() { with = mustAA(inst, m, core.Options{Workers: 1}) })
		oSecs := timeIt(func() { without = mustAA(inst, m, core.Options{Workers: 1, DisableInnerGroup: true}) })
		row(frac, wSecs, with.Stats.ContainmentTests, oSecs, without.Stats.ContainmentTests)
	}
}

func fig16c(cfg config) {
	inst := cfg.instance("IND", "CL", cfg.nP, cfg.nU, cfg.d, cfg.k, 170)
	header("m/|U|", "with(s)", "without(s)", "speedup")
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		m := mOf(frac, len(inst.Users))
		wSecs := timeIt(func() { mustAA(inst, m, core.Options{Workers: 1}) })
		oSecs := timeIt(func() { mustAA(inst, m, core.Options{Workers: 1, DisableFastTest: true}) })
		row(frac, wSecs, oSecs, oSecs/wSecs)
	}
}

func fig16d(cfg config) {
	header("users", "m/|U|", "early rep %", "early elim %", "combined %")
	for _, kind := range []string{"CL", "TA", "UN"} {
		inst := cfg.instance("IND", kind, cfg.nP, cfg.nU, cfg.d, cfg.k, 175)
		for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
			m := mOf(frac, len(inst.Users))
			reg := mustAA(inst, m, core.Options{Workers: 1})
			st := reg.Stats
			total := float64(st.Cells)
			rep := 100 * float64(st.EarlyReported) / total
			elim := 100 * float64(st.EarlyEliminated) / total
			row(kind, frac, rep, elim, rep+elim)
		}
	}
}

func fig17a(cfg config) {
	inst := cfg.instance("IND", "CL", cfg.nP, cfg.nU, cfg.d, cfg.k, 180)
	header("m/|U|", "largest(s)", "smallest(s)", "round-robin(s)")
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		m := mOf(frac, len(inst.Users))
		l := timeIt(func() { mustAA(inst, m, core.Options{Workers: 1, GroupChoice: core.LargestGroup}) })
		s := timeIt(func() { mustAA(inst, m, core.Options{Workers: 1, GroupChoice: core.SmallestGroup}) })
		r := timeIt(func() { mustAA(inst, m, core.Options{Workers: 1, GroupChoice: core.RoundRobinGroup}) })
		row(frac, l, s, r)
	}
}

func fig17b(cfg config) {
	rng := cfg.rng(185)
	ps := cfg.products("IND", cfg.nP, cfg.d, rng)
	ws := cfg.users("CL", cfg.nU, cfg.d, rng)
	variants := []struct {
		name  string
		prefs []topk.UserPref
	}{
		{"fixed k=10", data.WithK(ws, cfg.k)},
		{"uniform[1,20)", data.WithUniformK(rng, ws, 1, 20)},
		{"normal(10,5)", data.WithNormalK(rng, ws, 10, 5, 40)},
	}
	header("k setting", "m/|U|", "time(s)", "groups")
	for _, v := range variants {
		inst, err := core.NewInstance(ps, v.prefs)
		if err != nil {
			panic(err)
		}
		gs := inst.GroupStats()
		for _, frac := range []float64{0.3, 0.5, 0.7} {
			m := mOf(frac, len(inst.Users))
			secs := timeIt(func() { mustAA(inst, m, core.Options{Workers: 1}) })
			row(v.name, frac, secs, gs.NumGroups)
		}
	}
}
