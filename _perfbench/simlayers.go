package main

import (
	"encoding/binary"
	"fmt"

	"kagura/internal/cache"
	"kagura/internal/capacitor"
	"kagura/internal/compress"
	"kagura/internal/ehs"
	"kagura/internal/kagura"
	"kagura/internal/nvm"
	"kagura/internal/powertrace"
	"kagura/internal/workload"
)

// layerBudget is the minimum seconds each layer measurement repeats for, so
// one reading averages enough calls to be stable.
const layerBudget = 0.25

// sink keeps the results of timed calls live, so the compiler cannot drop
// the calls.
var sink uint32

// access is one cache access of a replayed stream.
type access struct {
	addr  uint32
	store bool
	value uint32
}

// appStream is one app's captured inputs: its instruction fetches, its data
// accesses, and the fill blocks and miss addresses a replay of each cache
// produces, with BDI (ACC and Kagura runs) and without a codec (baseline
// runs). They are captured once, untimed, so the timed replays exclude the
// data synthesis, which nvm.read_ns times.
type appStream struct {
	app     *workload.App
	fetches []access
	data    []access

	ifills, dfills           [][]byte // BDI caches, in miss order
	plainIfills, plainDfills [][]byte // codec-free caches, in miss order
	dmisses                  []uint32 // BDI DCache miss bases
}

// captureStream walks the app's instruction stream once.
func captureStream(app *workload.App) *appStream {
	st := &appStream{app: app}
	cur := workload.NewCursor(app)
	for i := int64(0); i < app.Len(); i++ {
		ins := cur.At(i)
		st.fetches = append(st.fetches, access{addr: ins.PC})
		if ins.IsMem {
			st.data = append(st.data, access{ins.Addr, ins.IsStore, ins.Value})
		}
	}
	st.ifills, _ = replayCache(cache.DefaultConfig("ICache", compress.BDI{}), st.fetches, nil, app)
	st.dfills, st.dmisses = replayCache(cache.DefaultConfig("DCache", compress.BDI{}), st.data, nil, app)
	st.plainIfills, _ = replayCache(cache.DefaultConfig("ICache", nil), st.fetches, nil, app)
	st.plainDfills, _ = replayCache(cache.DefaultConfig("DCache", nil), st.data, nil, app)
	return st
}

// replayCache feeds a stream through a fresh cache the way the simulator's
// access path does: the MRU read fast path, then AccessInto, then on a miss
// a Fill with the block's data, compression allowed. With fills nil the data
// comes from App.FillBlock and the fills and miss bases are returned;
// otherwise fills supplies the data in miss order.
func replayCache(cfg cache.Config, stream []access, fills [][]byte, app *workload.App) ([][]byte, []uint32) {
	c := cache.New(cfg)
	var res cache.Result
	var word [4]byte
	buf := make([]byte, cfg.BlockSize)
	mask := ^uint32(cfg.BlockSize - 1)
	var collected [][]byte
	var misses []uint32
	next := 0
	for i, a := range stream {
		now := int64(i)
		if !a.store {
			if _, ok := c.ReadHitMRU(a.addr, now); ok {
				continue
			}
		}
		var wdata []byte
		if a.store {
			binary.LittleEndian.PutUint32(word[:], a.value)
			wdata = word[:]
		}
		c.AccessInto(&res, a.addr, a.store, wdata, true, now)
		if res.Hit {
			continue
		}
		base := a.addr & mask
		if fills == nil {
			app.FillBlock(base, buf)
			collected = append(collected, append([]byte(nil), buf...))
			misses = append(misses, base)
		} else {
			copy(buf, fills[next])
			next++
		}
		if a.store {
			copy(buf[a.addr-base:], wdata)
		}
		c.Fill(a.addr, buf, a.store, true, false, now)
	}
	return collected, misses
}

// simLayers times each simulator layer on the sim matrix's own inputs and
// attributes the traced ops' ehs.Run time to them.
func simLayers(cases []simCase, trace *powertrace.Trace, ops []simOp) (map[string]float64, error) {
	var streams []*appStream
	kaguraCycles := map[*workload.App]int64{}
	for i := range cases {
		c := &cases[i]
		if c.class == "base" {
			streams = append(streams, captureStream(c.app))
		}
	}
	for _, op := range ops {
		if op.c.class == "kagura" {
			kaguraCycles[op.c.app] = op.res.PowerCycles
		}
	}
	m := map[string]float64{}
	var instrs, fetches, dataAccesses, memReads int64
	for _, st := range streams {
		instrs += st.app.Len()
		fetches += int64(len(st.fetches))
		dataAccesses += int64(len(st.data))
		memReads += int64(len(st.dmisses))
	}

	// Workload cursor, per instruction.
	perPass := timeLoop(layerBudget, func() {
		for _, st := range streams {
			cur := workload.NewCursor(st.app)
			for i := int64(0); i < st.app.Len(); i++ {
				sink ^= cur.At(i).PC
			}
		}
	})
	m["workload.cursor_ns"] = perPass / float64(instrs) * 1e9

	// Cache access paths, per access, with the run's geometry and BDI (the
	// ACC and Kagura runs' caches), and without a codec (the baseline's,
	// which ehs builds codec-free); the codec-free pair attributes the
	// baseline ops.
	icfg := cache.DefaultConfig("ICache", compress.BDI{})
	dcfg := cache.DefaultConfig("DCache", compress.BDI{})
	replayNs := func(cfg cache.Config, n int64, input func(*appStream) ([]access, [][]byte)) float64 {
		perPass := timeLoop(layerBudget, func() {
			for _, st := range streams {
				stream, fills := input(st)
				replayCache(cfg, stream, fills, st.app)
			}
		})
		return perPass / float64(n) * 1e9
	}
	m["cache.ifetch_ns"] = replayNs(icfg, fetches, func(st *appStream) ([]access, [][]byte) { return st.fetches, st.ifills })
	m["cache.access_ns"] = replayNs(dcfg, dataAccesses, func(st *appStream) ([]access, [][]byte) { return st.data, st.dfills })
	plainIfetchNs := replayNs(cache.DefaultConfig("ICache", nil), fetches,
		func(st *appStream) ([]access, [][]byte) { return st.fetches, st.plainIfills })
	plainAccessNs := replayNs(cache.DefaultConfig("DCache", nil), dataAccesses,
		func(st *appStream) ([]access, [][]byte) { return st.data, st.plainDfills })

	// Codecs over the apps' DCache fill blocks.
	var blocks [][]byte
	for _, st := range streams {
		blocks = append(blocks, st.dfills...)
	}
	for _, name := range codecNames {
		codec, err := compress.ByName(name)
		if err != nil {
			return nil, err
		}
		var n int
		perPass = timeLoop(layerBudget, func() {
			for _, b := range blocks {
				n, _ = codec.CompressedSize(b)
			}
		})
		sink ^= uint32(n)
		m["compress.size_ns."+name] = perPass / float64(len(blocks)) * 1e9
		var encoded [][]byte
		for _, b := range blocks {
			if enc, _, ok := codec.Compress(b); ok {
				encoded = append(encoded, enc)
			}
		}
		if len(encoded) == 0 {
			return nil, fmt.Errorf("codec %s compressed none of %d fill blocks", name, len(blocks))
		}
		dst := make([]byte, icfg.BlockSize)
		var derr error
		perPass = timeLoop(layerBudget, func() {
			for _, enc := range encoded {
				if err := codec.Decompress(enc, dst); err != nil {
					derr = err
				}
			}
		})
		if derr != nil {
			return nil, fmt.Errorf("codec %s: %w", name, derr)
		}
		m["compress.decompress_ns."+name] = perPass / float64(len(encoded)) * 1e9
	}

	// Kagura controller, per committed memory op, with the run's power
	// failures spread evenly over the stream.
	perPass = timeLoop(layerBudget, func() {
		for _, st := range streams {
			ctl := kagura.New(kagura.DefaultConfig())
			every := int64(len(st.data))/(kaguraCycles[st.app]+1) + 1
			for i := range st.data {
				ctl.OnMemOpCommitted(true)
				if int64(i+1)%every == 0 {
					ctl.OnPowerFailure()
					ctl.OnReboot()
				}
			}
		}
	})
	m["kagura.memop_ns"] = perPass / float64(dataAccesses) * 1e9

	// Capacitor advance (harvest + drain + leak), one per instruction, with
	// the trace's power; an outage recharges it the way sleep does.
	energy := ehs.DefaultEnergy()
	drain := energy.PipelinePJ * 1e-12
	perPass = timeLoop(layerBudget, func() {
		capCfg := capacitor.Default()
		st, err := capacitor.New(capCfg)
		if err != nil {
			panic(err) // the default configuration is valid
		}
		for i := int64(0); i < instrs; i++ {
			st.Harvest(trace.Power(i/ehs.TraceIntervalCycles) * ehs.CyclePeriod)
			st.Drain(drain)
			st.Leak(ehs.CyclePeriod)
			if st.BelowCheckpoint() {
				st.Harvest(capCfg.OperatingBudget())
			}
		}
	})
	m["capacitor.advance_ns"] = perPass / float64(instrs) * 1e9

	// NVM block reads (miss fills, synthesized on first touch) and writes.
	buf := make([]byte, dcfg.BlockSize)
	perPass = timeLoop(layerBudget, func() {
		for _, st := range streams {
			mem := nvm.New(nvm.DefaultConfig(), dcfg.BlockSize, st.app.FillBlock)
			for _, base := range st.dmisses {
				mem.ReadBlock(base, buf)
			}
		}
	})
	m["nvm.read_ns"] = perPass / float64(memReads) * 1e9
	perPass = timeLoop(layerBudget, func() {
		for _, st := range streams {
			mem := nvm.New(nvm.DefaultConfig(), dcfg.BlockSize, st.app.FillBlock)
			for _, base := range st.dmisses {
				mem.WriteBlock(base, buf)
			}
		}
	})
	m["nvm.write_ns"] = perPass / float64(memReads) * 1e9

	// Exact counts over one pass of the matrix, and the per-class cost.
	last := map[*simCase]*ehs.Result{}
	classSec := map[string]float64{}
	classInstr := map[string]int64{}
	var totalSec, attributed float64
	for _, op := range ops {
		last[op.c] = op.res
		classSec[op.c.class] += op.sec
		classInstr[op.c.class] += op.res.Executed
		totalSec += op.sec
		r := op.res
		ifetchNs, accessNs := m["cache.ifetch_ns"], m["cache.access_ns"]
		if op.c.class == "base" {
			ifetchNs, accessNs = plainIfetchNs, plainAccessNs
		}
		ns := float64(r.Executed)*(m["workload.cursor_ns"]+m["capacitor.advance_ns"]) +
			float64(r.ICache.Accesses)*ifetchNs +
			float64(r.DCache.Accesses)*accessNs +
			float64(r.ICache.Misses+r.DCache.Misses)*m["nvm.read_ns"] +
			float64(r.DCache.DirtyEvictions+r.CheckpointedBlocks)*m["nvm.write_ns"]
		if op.c.class == "kagura" {
			ns += float64(r.DCache.Accesses) * m["kagura.memop_ns"]
		}
		attributed += ns / 1e9
	}
	for _, class := range simClasses {
		m["ehs.ns_per_instr."+class] = classSec[class] / float64(classInstr[class]) * 1e9
	}
	m["ehs.unattributed_frac"] = 1 - attributed/totalSec
	var iAcc, iMiss, dAcc, dMiss, codecOps, executed, rm, cycles int64
	for _, r := range last {
		iAcc += r.ICache.Accesses
		iMiss += r.ICache.Misses
		dAcc += r.DCache.Accesses
		dMiss += r.DCache.Misses
		codecOps += r.Compressions + r.Decompressions
		executed += r.Executed
		rm += r.KaguraRMEntries
		cycles += r.PowerCycles
	}
	m["cache.icache_miss_rate"] = float64(iMiss) / float64(iAcc)
	m["cache.dcache_miss_rate"] = float64(dMiss) / float64(dAcc)
	m["compress.ops_per_kinstr"] = float64(codecOps) / float64(executed) * 1e3
	m["kagura.rm_entries"] = float64(rm)
	m["ehs.power_cycles"] = float64(cycles)
	return m, nil
}
