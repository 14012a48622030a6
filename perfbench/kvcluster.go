package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"icc/internal/backfill"
	"icc/internal/beacon"
	"icc/internal/checkpoint"
	"icc/internal/clock"
	"icc/internal/core"
	"icc/internal/crypto/aggsig"
	"icc/internal/crypto/keys"
	"icc/internal/engine"
	"icc/internal/gateway"
	"icc/internal/metrics"
	"icc/internal/obs"
	"icc/internal/pool"
	"icc/internal/runtime"
	"icc/internal/statemachine"
	"icc/internal/transport"
	"icc/internal/types"
	"icc/internal/verify"
	"icc/internal/wal"
)

// The live workloads share one cluster: n=4, ICC0, multisig
// certificates, a fixed 50 ms one-way delay on every message and Δbnd
// 1 s, so honest rounds never time out and a round is bounded below by
// 2δ.
const (
	kvN     = 4
	kvDelay = 50 * time.Millisecond
	kvBound = time.Second
)

// kvShape is what differs between the live workloads.
type kvShape struct {
	tcp     bool // real TCP loopback instead of in-process
	durable bool // WAL + checkpoint store per party
}

// checkpointInterval is how many finalized rounds apart a durable
// cluster certifies checkpoints.
const checkpointInterval = 16

// kvCluster is an ICC0 cluster assembled from the constructors
// icc.NewLocalCluster calls, in the same order and with the same
// defaults (verify pipeline with GOMAXPROCS workers, pool trusting the
// pipeline, one backfill worker, per-party gateway over queue and KV).
// It differs from the facade in exactly these places:
//   - keys are dealt from the workload seed instead of crypto/rand;
//   - every endpoint is wrapped to add a fixed one-way delay (and to
//     count what it sends);
//   - the TCP shape uses the TCP transport iccnode ships, which the
//     facade has no option for;
//   - every layer interface is wrapped for timing, and the commit hook
//     additionally records the chain for the agreement gate.
type kvCluster struct {
	shape kvShape
	reg   *obs.Registry
	led   *ledger

	hub    *transport.Inproc
	eps    []*delayEndpoint
	rnrs   []*runtime.Runner
	queues []*statemachine.Queue
	kvs    []*statemachine.KV
	gws    []*gateway.Gateway
	wals   []*wal.Log
	stores []*checkpoint.Store
	bcns   []*tracedBeacon
	links  []*linkStats

	ingress   *ingressClock
	incl      *inclusionClock
	proposals atomic.Int64
	// lastRound is each party's highest committed round, published
	// before its gateway acknowledges anything in that round.
	lastRound []atomic.Uint64

	mu       sync.Mutex
	refTimes []time.Time // party 0's commit times
	refChain []refBlock  // party 0's committed payloads, for the read oracle
	commitC  chan struct{}

	inject string
}

type refBlock struct {
	round   uint64
	payload []byte
}

// buildKV assembles (but does not start) a cluster. dir holds durable
// state and must be fresh. rec is nil in untraced runs.
func buildKV(shape kvShape, seed int64, dir string, rec *spans, inject string) (*kvCluster, error) {
	n := kvN
	pub, privs, err := keys.DealScheme(newSeedReader(seed, "kv-keys"), n, aggsig.SchemeMultisig)
	if err != nil {
		return nil, fmt.Errorf("dealing keys: %w", err)
	}
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(0)
	health := obs.NewHealthTracker()
	stats := metrics.NewTransportStatsOn(reg, tracer)
	c := &kvCluster{
		shape:     shape,
		reg:       reg,
		led:       newLedger(n),
		queues:    make([]*statemachine.Queue, n),
		kvs:       make([]*statemachine.KV, n),
		gws:       make([]*gateway.Gateway, n),
		wals:      make([]*wal.Log, n),
		stores:    make([]*checkpoint.Store, n),
		bcns:      make([]*tracedBeacon, n),
		links:     make([]*linkStats, n),
		lastRound: make([]atomic.Uint64, n),
		commitC:   make(chan struct{}),
		inject:    inject,
	}
	if rec != nil {
		c.ingress, c.incl = newIngressClock(), newInclusionClock()
	}
	raw, err := c.endpoints(stats)
	if err != nil {
		return nil, err
	}
	clk := clock.NewWall()
	for i := 0; i < n; i++ {
		i := i
		pid := types.PartyID(i)
		var st *loopStack
		if rec != nil {
			st = &loopStack{rec: rec, party: i}
		}
		c.queues[i] = statemachine.NewQueue()
		c.kvs[i] = statemachine.NewKV()
		c.gws[i] = gateway.New(c.queues[i], c.kvs[i], gateway.Options{Party: i, Registry: reg})
		ob := obs.NewObserver(obs.ObserverConfig{Registry: reg, Tracer: tracer, Party: i, Health: health})
		bcn := beacon.New(pub.Beacon, privs[i].Beacon, pid, pub.GenesisSeed)
		c.bcns[i] = &tracedBeacon{Source: bcn, st: st}
		c.links[i] = &linkStats{}
		ep := newDelayEndpoint(raw[i], kvDelay, c.links[i], st, c.ingress)
		c.eps = append(c.eps, ep)
		var pruneDepth, interval types.Round
		var partyWAL *wal.Log
		var partyStore *checkpoint.Store
		if shape.durable {
			base := filepath.Join(dir, fmt.Sprintf("party-%d", i))
			if partyWAL, err = wal.Open(filepath.Join(base, "wal"), wal.Options{Registry: reg}); err != nil {
				return nil, fmt.Errorf("party %d wal: %w", i, err)
			}
			if partyStore, err = checkpoint.OpenStore(filepath.Join(base, "checkpoints"), checkpoint.StoreOptions{Registry: reg}); err != nil {
				return nil, fmt.Errorf("party %d checkpoint store: %w", i, err)
			}
			c.wals[i], c.stores[i] = partyWAL, partyStore
			pruneDepth, interval = core.DefaultPruneDepth, checkpointInterval
		}
		// The backfill worker signs on its own goroutines, so it gets the
		// untimed beacon and an endpoint view that records no spans.
		bfw := backfill.New(bcn, untracedSender{ep}, backfill.Options{Registry: reg, Checkpoints: partyStore})
		kv := c.kvs[i]
		payload := &tracedPayload{inner: c.queues[i], st: st}
		if c.incl != nil {
			payload.included = c.incl.included
		}
		inner := core.NewEngine(core.Config{
			Self:       pid,
			Keys:       pub,
			Priv:       privs[i],
			Beacon:     c.bcns[i],
			Catchup:    bfw,
			DeltaBound: kvBound,
			Payload:    payload,
			Pool: pool.Options{Verifier: &tracedVerifier{
				inner: pool.NewVerifier(pub, pool.VerifyPreVerified), name: "verify.pool", st: st, party: i,
			}},
			PruneDepth:         pruneDepth,
			WAL:                partyWAL,
			Checkpoints:        partyStore,
			CheckpointInterval: interval,
			StateSnapshot:      kv.Snapshot,
			StateRestore:       kv.Restore,
			Hooks: core.ObservedHooks(ob, core.Hooks{
				OnCommit:  func(b *types.Block, _ time.Duration) { c.commit(i, st, b) },
				OnPropose: func(types.Round, time.Duration) { c.proposals.Add(1) },
			}),
		})
		var eng engine.Engine = &tracedEngine{Engine: inner, name: "core.step", st: st, ingress: c.ingress}
		r := runtime.NewRunner(eng, ep, clk, n)
		r.SetTransportStats(stats)
		r.SetObserver(ob)
		r.SetBackfillWorker(bfw)
		r.SetVerifyPipeline(verify.New(&tracedVerifier{
			inner: pool.NewVerifier(pub, pool.VerifyFull), name: "verify.pipeline", rec: rec, party: i,
		}, verify.Options{Registry: reg}))
		c.rnrs = append(c.rnrs, r)
	}
	return c, nil
}

// endpoints creates the raw transport: the facade's in-process hub, or
// TCP loopback listeners on ephemeral ports wired to each other.
func (c *kvCluster) endpoints(stats *metrics.TransportStats) ([]transport.Endpoint, error) {
	n := kvN
	out := make([]transport.Endpoint, n)
	if !c.shape.tcp {
		c.hub = transport.NewInproc(n)
		c.hub.SetStats(stats)
		for i := range out {
			out[i] = c.hub.Endpoint(types.PartyID(i))
		}
		return out, nil
	}
	tcps := make([]*transport.TCP, n)
	for i := range tcps {
		t, err := transport.NewTCPWithOptions(types.PartyID(i),
			map[types.PartyID]string{types.PartyID(i): "127.0.0.1:0"}, transport.TCPOptions{Stats: stats})
		if err != nil {
			for _, prev := range tcps[:i] {
				prev.Close()
			}
			return nil, fmt.Errorf("tcp endpoint %d: %w", i, err)
		}
		tcps[i] = t
		out[i] = t
	}
	for i := range tcps {
		for j := range tcps {
			if i != j {
				tcps[i].SetPeerAddr(types.PartyID(j), tcps[j].Addr())
			}
		}
	}
	return out, nil
}

// untracedSender lets the backfill worker send through the delay
// endpoint from its own goroutines without touching the loop's spans.
type untracedSender struct{ d *delayEndpoint }

func (u untracedSender) Send(to types.PartyID, m types.Message) error {
	u.d.stats.count(m)
	return u.d.inner.Send(to, m)
}

// commit is party i's OnCommit hook: the facade's apply → dequeue →
// acknowledge sequence, timed as statemachine.apply.
func (c *kvCluster) commit(i int, st *loopStack, b *types.Block) {
	st.begin("statemachine.apply", roundCorr(b.Round))
	defer st.end()
	c.led.add(i, b)
	if c.inject == "early-ack" && i == 1 {
		// Broken on purpose: acknowledge before the block is applied.
		c.lastRound[i].Store(uint64(b.Round))
		c.gws[i].ObserveCommit(uint64(b.Round), b.Payload)
		time.Sleep(20 * time.Millisecond)
		_ = c.kvs[i].Apply(b.Payload)
		c.queues[i].MarkCommitted(b.Payload)
	} else {
		_ = c.kvs[i].Apply(b.Payload)
		c.queues[i].MarkCommitted(b.Payload)
		c.lastRound[i].Store(uint64(b.Round))
		c.gws[i].ObserveCommit(uint64(b.Round), b.Payload)
	}
	if i == 0 {
		c.mu.Lock()
		c.refTimes = append(c.refTimes, time.Now())
		c.refChain = append(c.refChain, refBlock{round: uint64(b.Round), payload: b.Payload})
		close(c.commitC)
		c.commitC = make(chan struct{})
		c.mu.Unlock()
	}
}

func (c *kvCluster) start() {
	for i, r := range c.rnrs {
		c.gws[i].Start()
		r.Start()
	}
}

// waitHeight blocks until every party has committed at least h blocks.
func (c *kvCluster) waitHeight(ctx context.Context, h int) error {
	for {
		c.mu.Lock()
		signal := c.commitC
		c.mu.Unlock()
		done := true
		for i := 0; i < kvN; i++ {
			if c.led.height(i) < h {
				done = false
			}
		}
		if done {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for height %d: %w", h, ctx.Err())
		case <-signal:
		case <-time.After(50 * time.Millisecond): // other parties may trail party 0
		}
	}
}

// stop shuts the cluster down in the facade's order and waits for every
// goroutine the benchmark started.
func (c *kvCluster) stop() {
	for _, g := range c.gws {
		g.Stop()
	}
	for _, r := range c.rnrs {
		r.Stop()
	}
	for _, w := range c.wals {
		if w != nil {
			_ = w.Close()
		}
	}
	for _, s := range c.stores {
		if s != nil {
			s.Close()
		}
	}
	for _, ep := range c.eps {
		_ = ep.Close()
	}
	if c.hub != nil {
		c.hub.Close()
	}
	for _, ep := range c.eps {
		ep.wait()
	}
}

// refSnapshot returns party 0's commit times and chain so far.
func (c *kvCluster) refSnapshot() ([]time.Time, []refBlock) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Time(nil), c.refTimes...), append([]refBlock(nil), c.refChain...)
}

// setupKV measures set-up: assemble, start, and wait until every party
// has committed its first block. All but the last cluster are torn
// down; the last one is returned running.
func setupKV(shape kvShape, seed int64, outDir string, reps int, rec *spans, inject string) (*kvCluster, string, []float64, error) {
	var times []float64
	for r := 0; r < reps; r++ {
		dir := filepath.Join(outDir, fmt.Sprintf("state-%d-%d", os.Getpid(), r))
		goruntime.GC() // each set-up starts from a clean heap, as a fresh process would
		t0 := time.Now()
		var traced *spans
		if r == reps-1 {
			traced = rec
		}
		c, err := buildKV(shape, seed, dir, traced, inject)
		if err != nil {
			return nil, "", nil, err
		}
		c.start()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = c.waitHeight(ctx, 1)
		cancel()
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			c.stop()
			os.RemoveAll(dir)
			return nil, "", nil, err
		}
		if r == reps-1 {
			return c, dir, times, nil
		}
		c.stop()
		os.RemoveAll(dir)
	}
	return nil, "", nil, fmt.Errorf("no set-up repetitions")
}
