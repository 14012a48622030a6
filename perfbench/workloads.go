package main

import (
	"crypto/sha256"
	"fmt"
	goruntime "runtime"
	"strings"
	"time"

	"icc/internal/obs"
	"icc/internal/statemachine"
	"icc/internal/types"
)

// kvSteady: the client path as the facade ships it — in-process
// transport, memory only — under 200 writes/s over 16 clients with
// uniform keys.
func kvSteady(cfg runConfig) (*outcome, error) {
	return kvWorkload(cfg, kvShape{}, loadMix{rate: 200})
}

// kvDurableMixed: the shape iccnode ships — TCP loopback, a WAL and a
// checkpoint store (interval 16) per party — under 1000 ops/s, half
// Zipf(1.2) writes, half token-gated reads on another replica.
func kvDurableMixed(cfg runConfig) (*outcome, error) {
	return kvWorkload(cfg, kvShape{tcp: true, durable: true}, loadMix{rate: 1000, readFrac: 0.5, zipf: 1.2})
}

func kvWorkload(cfg runConfig, shape kvShape, mix loadMix) (*outcome, error) {
	o := newOutcome()
	k := &kvRun{
		name: cfg.workload, shape: shape, mix: mix, seed: cfg.seed, seconds: cfg.seconds,
		warmup: 2 * time.Second, reps: 5, outDir: cfg.outDir, inject: cfg.inject,
	}
	if cfg.smoke {
		k.warmup, k.reps = 500*time.Millisecond, 1
	}
	if cfg.trace {
		k.rec, k.reps = newSpans(200000), 1
		o.spans = k.rec
	}
	f, err := k.execute()
	if err != nil {
		return nil, err
	}
	o.res.Attempted, o.res.Failed = f.attempted, f.attempted-f.ok
	o.res.Correct = f.errs.ok() && f.attempted > 0 && f.blocks > 0
	o.detail["checks"] = f.errs.String()
	o.detail["blocks_in_window"] = f.blocks
	o.detail["setup_s_each"] = f.setup
	o.detail["gen_late_ms_p99"] = quantile(f.lateMs, 0.99)
	o.detail["stall_max_ms"] = f.stallMax
	o.detail["read_p50_ms"] = median(f.readMs)
	o.detail["read_samples"] = len(f.readMs)
	o.detail["cpu_ms_per_block_slices"] = f.cpuSlices
	o.detail["cpu_ms_per_block_total"] = ms(f.cpu) / float64(max(f.blocks, 1))
	o.detail["blocks_per_s_whole"] = float64(f.blocks) / f.window.Seconds()
	o.detail["blocks_per_s_slices"] = f.blockSlices
	blocks := float64(max(f.blocks, 1))
	cpuPerBlock := median(f.cpuSlices)
	if !cfg.trace {
		latencyFigures(o, f.commitMs, f.commitSlices, false)
		o.set("ok_frac", float64(f.ok)/float64(max(f.attempted, 1)))
		o.set("blocks_per_s", median(f.blockSlices))
		o.set("cpu_ms_per_block", cpuPerBlock)
		o.set("kib_per_party_block", float64(f.sentBytes)/1024/kvN/blocks)
		o.set("peak_rss_mb", peakRSSMB())
		o.set("setup_s", median(f.setup))
		return o, nil
	}
	c := f.c
	rounds := float64(max(f.totalRef, 1))
	snap := c.reg.Snapshot()
	rec := k.rec
	beaconFigures(o, rec, rounds, c)
	coreFigures(o, rec, rounds, float64(c.proposals.Load()))
	verifyFigures(o, rec, rounds, c.ingress.samples(), snap)
	_, chain := c.refSnapshot()
	cmds := 0
	for _, b := range chain {
		got, _ := statemachine.DecodePayload(b.payload)
		cmds += len(got)
	}
	queueMs := c.incl.samples()
	o.set("statemachine.queue_wait_ms_p50", median(queueMs))
	o.set("statemachine.queue_wait_ms_p99", quantile(queueMs, 0.99))
	o.set("statemachine.cmds_per_block", float64(cmds)/rounds)
	o.set("statemachine.payload_us_per_block", totalMs(rec, "statemachine.payload")*1e3/rounds)
	o.set("statemachine.apply_us_per_block", totalMs(rec, "statemachine.apply")*1e3/rounds)
	o.set("gateway.submit_us_p50", median(rec.get("gateway.submit").durs)*1e3)
	o.set("gateway.reject_frac", float64(f.rejected)/float64(max(f.submits, 1)))
	o.set("gateway.read_wait_ms_p50", median(rec.get("gateway.read").durs))
	o.set("gateway.read_p50_ms", median(f.readMs))
	var msgs, bytes, sendErr int64
	for _, l := range c.links {
		msgs += l.msgs.Load()
		bytes += l.bytes.Load()
		sendErr += l.sendErr.Load()
	}
	o.set("transport.msgs_per_block", float64(msgs)/rounds)
	o.set("transport.kib_per_block", float64(bytes)/1024/rounds)
	o.set("transport.send_us_p50", median(rec.get("transport.send").durs)*1e3)
	o.set("transport.drops", float64(sendErr)+sumFamily(snap, "icc_transport_inbox_overflow_total")+
		sumFamily(snap, "icc_transport_queue_dropped_total"))
	o.set("wal.syncs_per_block", sumFamily(snap, "icc_wal_syncs_total")/rounds)
	o.set("wal.kib_per_block", sumFamily(snap, "icc_wal_append_bytes_total")/1024/rounds)
	o.set("checkpoint.saves", sumFamily(snap, "icc_checkpoint_saves_total"))
	o.set("gossip.self_ms_per_block", 0)
	o.set("gossip.msgs_per_party_block", 0)
	o.set("gossip.kib_per_party_block", 0)
	gcFigures(o, f.gc0, f.gc1, f.cpu, blocks)
	o.set("run.gen_late_ms_p99", quantile(f.lateMs, 0.99))
	o.set("run.stall_max_ms", f.stallMax)
	latencyFigures(o, f.commitMs, f.commitSlices, true)
	o.set("run.traced_cpu_ms_per_block", cpuPerBlock)
	o.set("run.spans_dropped", float64(rec.dropped))
	return o, nil
}

// gossipSim: the bypass workload for crypto changes. Each simulation
// runs to a fixed count of finalized blocks; the same seed is replayed
// for the rest of the window, which both repeats the CPU measurement
// and checks the simulation is deterministic.
func gossipSim(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	blocks, reps := simBlocks, 9
	if cfg.smoke {
		blocks, reps = 8, 1
	}
	var rec *spans
	if cfg.trace {
		rec, reps = newSpans(200000), 1
		o.spans = rec
	}
	var errs checkErr
	var setup []float64
	var c *simCluster
	for r := 0; r < reps; r++ {
		goruntime.GC() // each set-up starts from a clean heap, as a fresh process would
		t0 := time.Now()
		var err error
		if c, err = buildSim(cfg.seed, rec, &errs); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	start := time.Now()
	first := runSim(c, blocks)
	cpus := []float64{first.cpuPerBlock}
	// Replay while another simulation still fits in the window.
	for !cfg.trace {
		elapsed := time.Since(start).Seconds()
		if elapsed+elapsed/float64(len(cpus)) > cfg.seconds {
			break
		}
		again, err := buildSim(cfg.seed, nil, &errs)
		if err != nil {
			return nil, err
		}
		rep := runSim(again, blocks)
		cpus = append(cpus, rep.cpuPerBlock)
		if rep.fingerprint != first.fingerprint {
			errs.addf("replay of seed %d diverged: %s vs %s", cfg.seed, rep.fingerprint, first.fingerprint)
		}
	}
	if cfg.inject == "fork" {
		c.led.corrupt(c.live[1], 1)
		c.led.check(&errs)
	}
	if cfg.inject == "kv-mismatch" {
		_ = c.kvs[c.live[len(c.live)-1]].Apply(statemachine.EncodePayload([]statemachine.Command{
			{Client: 1 << 40, Seq: 1, Op: statemachine.OpSet, Key: "k0000", Value: []byte("stray")},
		}))
		c.check(first.target)
	}

	var commitMs, queueMs []float64
	ok := 0
	for _, op := range c.ops {
		lat := op.ackAt - op.due
		if op.ack && lat <= simLimit {
			ok++
			commitMs = append(commitMs, ms(lat))
		}
		if op.inc {
			queueMs = append(queueMs, ms(op.included-op.due))
		}
	}
	o.res.Attempted, o.res.Failed = len(c.ops), len(c.ops)-ok
	o.res.Correct = errs.ok() && len(c.ops) > 0
	o.detail["checks"] = errs.String()
	o.detail["simulations"] = len(cpus)
	o.detail["cpu_ms_per_block_each"] = cpus
	o.detail["crashed"] = c.crashed
	o.detail["stall_max_ms"] = first.stallMax
	o.detail["virtual_s"] = first.virtual.Seconds()
	o.detail["setup_s_each"] = setup
	height := float64(max(c.led.height(c.ref), 1))
	live := float64(len(c.live))
	var msgs, bytes int64
	for _, p := range c.live {
		msgs += c.rec.PartyMsgs(types.PartyID(p))
		bytes += c.rec.PartyBytes(types.PartyID(p))
	}
	if !cfg.trace {
		latencyFigures(o, commitMs, nil, false)
		o.set("ok_frac", float64(ok)/float64(max(len(c.ops), 1)))
		o.set("blocks_per_s", first.blocksPerS)
		o.set("cpu_ms_per_block", median(cpus))
		o.set("kib_per_party_block", float64(bytes)/1024/live/height)
		o.set("peak_rss_mb", peakRSSMB())
		o.set("setup_s", median(setup))
		return o, nil
	}
	// The simulated beacon is a hash chain: no threshold crypto runs,
	// and its calls are not timed.
	o.set("beacon.sign_ms_per_round", 0)
	o.set("beacon.reveal_ms_per_round", 0)
	o.set("beacon.reveal_calls_per_round", 0)
	o.set("beacon.reveal_ok_frac", 0)
	coreFigures(o, rec, height, float64(c.proposals))
	verifyFigures(o, rec, height, nil, obs.Snapshot{})
	o.set("statemachine.queue_wait_ms_p50", median(queueMs))
	o.set("statemachine.queue_wait_ms_p99", quantile(queueMs, 0.99))
	o.set("statemachine.cmds_per_block", float64(first.cmds)/height)
	o.set("statemachine.payload_us_per_block", totalMs(rec, "statemachine.payload")*1e3/height)
	o.set("statemachine.apply_us_per_block", totalMs(rec, "statemachine.apply")*1e3/height)
	for _, name := range []string{"gateway.submit_us_p50", "gateway.reject_frac", "gateway.read_wait_ms_p50",
		"gateway.read_p50_ms", "transport.send_us_p50", "transport.drops", "wal.syncs_per_block",
		"wal.kib_per_block", "checkpoint.saves"} {
		o.set(name, 0) // no gateway, socket or disk in the simulation
	}
	o.set("transport.msgs_per_block", float64(msgs)/height)
	o.set("transport.kib_per_block", float64(bytes)/1024/height)
	o.set("gossip.self_ms_per_block", selfMs(rec, "gossip.step")/height)
	o.set("gossip.msgs_per_party_block", float64(msgs)/live/height)
	o.set("gossip.kib_per_party_block", float64(bytes)/1024/live/height)
	gcFigures(o, first.gc0, first.gc1, first.cpu, height)
	o.set("run.gen_late_ms_p99", 0) // the schedule runs on virtual time
	o.set("run.stall_max_ms", first.stallMax)
	latencyFigures(o, commitMs, nil, true)
	o.set("run.traced_cpu_ms_per_block", first.cpuPerBlock)
	o.set("run.spans_dropped", float64(rec.dropped))
	return o, nil
}

// simFigures summarises one simulation.
type simFigures struct {
	target      int
	cpu         time.Duration
	cpuPerBlock float64
	blocksPerS  float64 // virtual
	stallMax    float64 // ms, virtual
	virtual     time.Duration
	cmds        int
	gc0, gc1    gcSample
	fingerprint string
}

func runSim(c *simCluster, blocks int) simFigures {
	var f simFigures
	f.gc0 = readGC()
	cpu0 := cpuTime()
	f.target = c.run(blocks)
	f.cpu = cpuTime() - cpu0
	f.gc1 = readGC()
	c.check(f.target)
	// CPU per block is the median over slices of simSlice blocks, so a
	// burst of host contention moves one slice, not the figure.
	var slices []float64
	prev := cpu0
	for _, m := range c.cpuMarks {
		slices = append(slices, ms(m-prev)/simSlice)
		prev = m
	}
	f.cpuPerBlock = median(slices)
	if len(slices) == 0 { // shorter than one slice
		f.cpuPerBlock = ms(f.cpu) / float64(max(c.led.height(c.ref), 1))
	}
	t := c.refTimes
	if len(t) > 1 {
		f.blocksPerS = float64(len(t)-1) / (t[len(t)-1] - t[0]).Seconds()
	}
	for i := 1; i < len(t); i++ {
		if gap := ms(t[i] - t[i-1]); gap > f.stallMax {
			f.stallMax = gap
		}
	}
	f.virtual = c.net.Now()
	f.cmds = c.cmdsCommitted
	chain := c.led.chain(c.ref)
	var sb strings.Builder
	for _, b := range chain {
		fmt.Fprintf(&sb, "%x", b.hash[:4])
	}
	var lat time.Duration
	for _, op := range c.ops {
		lat += op.ackAt - op.due
	}
	f.fingerprint = fmt.Sprintf("h%d/%x/lat%d", len(chain), sha256.Sum256([]byte(sb.String())), lat)
	return f
}

// totalMs and selfMs sum a span name's wall time and self time.
func totalMs(rec *spans, name string) float64 { return float64(rec.get(name).totalNs) / 1e6 }
func selfMs(rec *spans, name string) float64  { return float64(rec.get(name).selfNs) / 1e6 }

func beaconFigures(o *outcome, rec *spans, rounds float64, c *kvCluster) {
	var ok int64
	for _, b := range c.bcns {
		ok += b.revealOK.Load()
	}
	reveal := rec.get("beacon.reveal")
	o.set("beacon.sign_ms_per_round", totalMs(rec, "beacon.sign")/rounds)
	o.set("beacon.reveal_ms_per_round", totalMs(rec, "beacon.reveal")/rounds)
	o.set("beacon.reveal_calls_per_round", float64(reveal.count)/rounds)
	o.set("beacon.reveal_ok_frac", float64(ok)/float64(max(reveal.count, 1)))
}

func coreFigures(o *outcome, rec *spans, blocks, proposals float64) {
	step := rec.get("core.step")
	o.set("core.step_ms_per_block", float64(step.totalNs)/1e6/blocks)
	o.set("core.self_ms_per_block", float64(step.selfNs)/1e6/blocks)
	o.set("core.step_ms_p99", quantile(step.durs, 0.99))
	o.set("core.proposals_per_block", proposals/blocks)
}

func verifyFigures(o *outcome, rec *spans, blocks float64, waits []float64, snap obs.Snapshot) {
	pipe, inPool := rec.get("verify.pipeline"), rec.get("verify.pool")
	o.set("verify.calls_per_block", float64(pipe.count+inPool.count)/blocks)
	o.set("verify.ms_per_block", float64(pipe.totalNs+inPool.totalNs)/1e6/blocks)
	o.set("verify.wait_ms_p50", median(waits))
	hits, misses := sumFamily(snap, "icc_verify_cache_hits_total"), sumFamily(snap, "icc_verify_cache_misses_total")
	frac := 0.0
	if hits+misses > 0 {
		frac = hits / (hits + misses)
	}
	o.set("verify.cache_hit_frac", frac)
}

func gcFigures(o *outcome, gc0, gc1 gcSample, cpu time.Duration, blocks float64) {
	o.set("gc.alloc_mb_per_block", (gc1.allocBytes-gc0.allocBytes)/1e6/blocks)
	frac := 0.0
	if cpu > 0 {
		frac = (gc1.gcCPU - gc0.gcCPU) / cpu.Seconds()
	}
	o.set("gc.cpu_frac", frac)
}

// sumFamily adds every series of a metric family in a snapshot,
// whatever its labels.
func sumFamily(snap obs.Snapshot, family string) float64 {
	var v float64
	for k, x := range snap {
		if k == family || strings.HasPrefix(k, family+"{") {
			v += x
		}
	}
	return v
}
