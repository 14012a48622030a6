package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"icc/internal/statemachine"
)

// loadMix is an open-loop client mix: operations fall due on a fixed
// schedule whatever the cluster does, as independent users would send.
type loadMix struct {
	rate     int     // operations per second
	readFrac float64 // share of operations that are token-gated reads
	zipf     float64 // write-key skew (0 = uniform)
}

// What every live mix shares: 16 writers assigned round-robin to the
// gateways, 1024 keys, 64-byte values, and the latency limit past which
// an operation counts as failed.
const (
	kvClients = 16
	kvKeys    = 1024
	kvValue   = 64
	kvLimit   = 10 * time.Second
)

// kvOp is one scheduled operation and its outcome. The generator fills
// the request half; exactly one goroutine fills the outcome half, and
// results are read only after every such goroutine has finished.
type kvOp struct {
	read    bool
	gw      int
	client  uint64
	seq     uint64
	key     string
	value   []byte
	due     time.Time
	sent    time.Time
	counted bool

	done     time.Time
	err      error
	rejected bool   // refused at admission
	token    uint64 // write: acked commit index; read: token presented
	index    uint64 // read: replica commit index the read was served at
	after    uint64 // read: replica commit index once the read returned
	got      []byte
	found    bool
	badAck   string // why the ack broke a gate, if it did
}

// ackedWrite is a write a later read may target.
type ackedWrite struct {
	key   string
	gw    int
	token uint64
}

// generator issues the mix against a running cluster.
type generator struct {
	c   *kvCluster
	mix loadMix
	rng *rand.Rand
	zf  *rand.Zipf
	rec *spans

	ops     []*kvOp
	nextSeq []uint64
	writes  int
	wg      sync.WaitGroup

	mu    sync.Mutex
	acked []ackedWrite // most recent last, bounded
}

const ackedKeep = 256

func newGenerator(c *kvCluster, mix loadMix, seed int64, rec *spans) *generator {
	rng := rand.New(rand.NewSource(subSeed(seed, "kv-load")))
	g := &generator{c: c, mix: mix, rng: rng, rec: rec, nextSeq: make([]uint64, kvClients)}
	if mix.zipf > 0 {
		g.zf = rand.NewZipf(rng, mix.zipf, 1, uint64(kvKeys-1))
	}
	return g
}

func (g *generator) key() string {
	if g.zf != nil {
		return fmt.Sprintf("k%04d", g.zf.Uint64())
	}
	return fmt.Sprintf("k%04d", g.rng.Intn(kvKeys))
}

// commandValue is a write's value: unique per (client, seq), so a read
// that returns it names the write it observed.
func commandValue(client, seq uint64, size int) []byte {
	v := []byte(fmt.Sprintf("c%d.%d|", client, seq))
	for len(v) < size {
		v = append(v, 'x')
	}
	return v[:size]
}

// run issues operations due in [t0, t0+total); those due in
// [from, to) are counted. It returns when the last one is issued.
func (g *generator) run(ctx context.Context, t0 time.Time, total time.Duration, from, to time.Time) {
	for j := 0; ; j++ {
		due := t0.Add(time.Duration(j) * time.Second / time.Duration(g.mix.rate))
		if due.Sub(t0) >= total || ctx.Err() != nil {
			return
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		op := g.next(due)
		op.counted = !due.Before(from) && due.Before(to)
		g.ops = append(g.ops, op)
		g.issue(ctx, op)
	}
}

// next draws the next operation from the seeded stream.
func (g *generator) next(due time.Time) *kvOp {
	n := kvN
	if g.rng.Float64() < g.mix.readFrac {
		op := &kvOp{read: true, due: due}
		pick := g.rng.Intn(ackedKeep)
		other := 1 + g.rng.Intn(n-1)
		g.mu.Lock()
		if len(g.acked) > 0 {
			w := g.acked[len(g.acked)-1-pick%len(g.acked)]
			op.key, op.token, op.gw = w.key, w.token, (w.gw+other)%n
		}
		g.mu.Unlock()
		if op.key == "" { // nothing acked yet: an ungated read
			op.key, op.gw = g.key(), other%n
		}
		return op
	}
	client := g.writes % kvClients
	g.writes++
	g.nextSeq[client]++
	op := &kvOp{
		gw: client % n, client: uint64(client) + 1, seq: g.nextSeq[client],
		key: g.key(), due: due,
	}
	op.value = commandValue(op.client, op.seq, kvValue)
	return op
}

func (g *generator) issue(ctx context.Context, op *kvOp) {
	gw := g.c.gws[op.gw]
	deadline := op.due.Add(kvLimit)
	if op.read {
		op.sent = time.Now()
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			rctx, cancel := context.WithDeadline(ctx, deadline)
			defer cancel()
			start := g.rec.start()
			res, err := gw.Read(rctx, op.key, op.token)
			g.rec.root("gateway.read", op.gw, start, "r"+strconv.FormatUint(op.token, 10))
			op.done, op.err, op.after = time.Now(), err, gw.AppliedIndex()
			op.got, op.found, op.index = res.Value, res.Found, res.Index
		}()
		return
	}
	start := g.rec.start()
	cmd := statemachine.Command{Client: op.client, Seq: op.seq, Op: statemachine.OpSet, Key: op.key, Value: op.value}
	g.c.incl.submitted(op.client, op.seq)
	r, err := gw.Submit(ctx, cmd)
	g.rec.root("gateway.submit", op.gw, start, fmt.Sprintf("c%d.%d", op.client, op.seq))
	op.sent = time.Now()
	if err != nil {
		op.done, op.err, op.rejected = op.sent, err, true
		return
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		wctx, cancel := context.WithDeadline(ctx, deadline)
		defer cancel()
		ack, err := r.Wait(wctx)
		op.done, op.err = time.Now(), err
		if err != nil {
			return
		}
		op.token = ack.CommitIndex
		// Gates at ack time: the write is applied on the acking replica,
		// and that replica has committed the round it acked in.
		if applied := g.c.kvs[op.gw].AppliedSeq(op.client); applied < op.seq {
			op.badAck = fmt.Sprintf("ack of c%d.%d at party %d precedes apply (applied seq %d)", op.client, op.seq, op.gw, applied)
		} else if last := g.c.lastRound[op.gw].Load(); last < ack.CommitIndex {
			op.badAck = fmt.Sprintf("ack of c%d.%d at round %d precedes its finality at party %d (round %d)", op.client, op.seq, ack.CommitIndex, op.gw, last)
		}
		g.mu.Lock()
		g.acked = append(g.acked, ackedWrite{key: op.key, gw: op.gw, token: op.token})
		if len(g.acked) > 2*ackedKeep {
			g.acked = append(g.acked[:0], g.acked[len(g.acked)-ackedKeep:]...)
		}
		g.mu.Unlock()
	}()
}

// kvRun is one live-workload run: set-up, warm-up, measured window,
// drain, and the correctness gates.
type kvRun struct {
	name    string
	shape   kvShape
	mix     loadMix
	seed    int64
	seconds float64
	warmup  time.Duration
	reps    int // set-up repetitions
	outDir  string
	rec     *spans
	inject  string
}

type kvFigures struct {
	setup     []float64
	commitMs  []float64
	readMs    []float64
	lateMs    []float64
	attempted int
	ok        int
	rejected  int
	submits   int
	blocks    int // party 0's blocks in the measured window
	window    time.Duration
	cpu       time.Duration
	sentBytes int64
	gc0, gc1  gcSample
	totalRef  int // party 0's blocks over the whole run
	stallMax  float64
	// The window is also cut into sub-windows of sliceLen; the gated
	// figures are medians over them, so contention from the host's other
	// tenants that covers part of a run moves a few sub-windows, not the
	// figure.
	from         time.Time
	cpuAt        []time.Duration // process CPU at the end of each sub-window
	cpuSlices    []float64       // ms of CPU per block
	blockSlices  []float64       // blocks per second
	commitSlices [][]float64     // latencies of the writes due in each
	errs         checkErr
	c            *kvCluster
}

func (k *kvRun) execute() (*kvFigures, error) {
	f := &kvFigures{}
	c, dir, setup, err := setupKV(k.shape, k.seed, k.outDir, k.reps, k.rec, k.inject)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", k.name, err)
	}
	defer os.RemoveAll(dir)
	f.setup, f.c = setup, c
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	g := newGenerator(c, k.mix, k.seed, k.rec)
	window := time.Duration(k.seconds * float64(time.Second))
	t0 := time.Now().Add(10 * time.Millisecond)
	from, to := t0.Add(k.warmup), t0.Add(k.warmup+window)
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		g.run(ctx, t0, k.warmup+window, from, to)
	}()

	time.Sleep(time.Until(from))
	cpu0, gc0, sent0 := cpuTime(), readGC(), c.sentBytes()
	f.from = from
	for t := from.Add(sliceLen); !t.After(to); t = t.Add(sliceLen) {
		time.Sleep(time.Until(t))
		f.cpuAt = append(f.cpuAt, cpuTime())
	}
	time.Sleep(time.Until(to))
	cpu1, gc1, sent1 := cpuTime(), readGC(), c.sentBytes()
	f.window, f.cpu, f.gc0, f.gc1, f.sentBytes = to.Sub(from), cpu1-cpu0, gc0, gc1, sent1-sent0
	<-genDone
	g.wg.Wait()

	k.drain(c, &f.errs)
	times, chain := c.refSnapshot()
	f.totalRef = len(times)
	prevCPU, prevT := cpu0, from
	for i, at := range f.cpuAt {
		end := from.Add(time.Duration(i+1) * sliceLen)
		b := blocksBetween(times, prevT, end)
		f.blockSlices = append(f.blockSlices, b/sliceLen.Seconds())
		if b > 0 {
			f.cpuSlices = append(f.cpuSlices, ms(at-prevCPU)/b)
		}
		prevCPU, prevT = at, end
	}
	for i, t := range times {
		if !t.Before(from) && t.Before(to) {
			f.blocks++
		}
		if i > 0 && !t.Before(from) && t.Before(to) {
			if gap := ms(t.Sub(times[i-1])); gap > f.stallMax {
				f.stallMax = gap
			}
		}
	}
	k.score(g, chain, f)
	return f, nil
}

// sliceLen is the length of a measurement sub-window.
const sliceLen = 4 * time.Second

// blocksBetween counts commits in [from, to), interpolating linearly
// inside the gaps that straddle either end, so short sub-windows are
// not quantized to whole blocks.
func blocksBetween(times []time.Time, from, to time.Time) float64 {
	at := func(t time.Time) float64 {
		i := sort.Search(len(times), func(i int) bool { return times[i].After(t) })
		if i == 0 || i == len(times) {
			return float64(i)
		}
		prev, next := times[i-1], times[i]
		return float64(i) + float64(t.Sub(prev))/float64(next.Sub(prev))
	}
	return at(to) - at(from)
}

// sentBytes sums the wire bytes every party has sent so far.
func (c *kvCluster) sentBytes() int64 {
	var b int64
	for _, l := range c.links {
		b += l.bytes.Load()
	}
	return b
}

// drain lets the backlog commit, stops the cluster, and checks that
// all parties agree on the chain and hold equal stores.
func (k *kvRun) drain(c *kvCluster, errs *checkErr) {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		pending := 0
		for _, q := range c.queues {
			pending += q.Len()
		}
		if pending == 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	top := 0
	for i := 0; i < kvN; i++ {
		if h := c.led.height(i); h > top {
			top = h
		}
	}
	// Two more blocks everywhere: all commands are then applied on every
	// replica, and what follows is empty.
	ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(5*time.Second))
	if err := c.waitHeight(ctx, top+2); err != nil {
		errs.addf("drain: %v", err)
	}
	cancel()
	c.stop()
	c.led.check(errs)
	if k.inject == "fork" {
		// Broken on purpose: party 1 claims a different block at height 1.
		c.led.corrupt(1, 1)
		c.led.check(errs)
	}
	if k.inject == "kv-mismatch" {
		// Broken on purpose: one replica's store drifts.
		_ = c.kvs[kvN-1].Apply(statemachine.EncodePayload([]statemachine.Command{
			{Client: 1 << 40, Seq: 1, Op: statemachine.OpSet, Key: "k0000", Value: []byte("stray")},
		}))
	}
	want := c.kvs[0].StateHash()
	for i, kv := range c.kvs {
		if kv.StateHash() != want {
			errs.addf("party %d store differs from party 0 after drain", i)
		}
	}
}

// score turns the operations into figures, checking every read against
// the committed chain and every ack against the round that carried it.
func (k *kvRun) score(g *generator, chain []refBlock, f *kvFigures) {
	f.commitSlices = make([][]float64, len(f.cpuAt))
	// The oracle replays party 0's chain into a fresh store. A read is
	// correct when it returns the key's finalized state at some round
	// from the index it reported up to the block after the replica's
	// index once it returned: the gateway samples its index before
	// reading the store, and the commit hook applies a block to the store
	// before it advances the gateway's index.
	type idRound struct{ client, seq uint64 }
	type write struct {
		round uint64
		value string
	}
	carried := make(map[idRound]uint64)
	writes := make(map[string][]write)
	for _, b := range chain {
		cmds, _ := statemachine.DecodePayload(b.payload)
		for _, cmd := range cmds {
			if _, dup := carried[idRound{cmd.Client, cmd.Seq}]; !dup {
				carried[idRound{cmd.Client, cmd.Seq}] = b.round
				writes[cmd.Key] = append(writes[cmd.Key], write{b.round, string(cmd.Value)})
			}
		}
	}
	var reads []*kvOp
	for _, op := range g.ops {
		if op.read && op.err == nil {
			reads = append(reads, op)
		}
	}
	sort.Slice(reads, func(i, j int) bool { return reads[i].index < reads[j].index })
	oracle := statemachine.NewKV()
	bad := make(map[*kvOp]bool)
	next := 0
	for _, op := range reads {
		for next < len(chain) && chain[next].round <= op.index {
			_ = oracle.Apply(chain[next].payload)
			next++
		}
		want, found := oracle.Get(op.key)
		upper := op.after
		if i := sort.Search(len(chain), func(i int) bool { return chain[i].round > op.after }); i < len(chain) {
			upper = chain[i].round
		}
		match := found == op.found && string(want) == string(op.got)
		for _, w := range writes[op.key] {
			if w.round > op.index && w.round <= upper && op.found && w.value == string(op.got) {
				match = true
			}
		}
		switch {
		case op.index < op.token:
			f.errs.addf("read of %s served at index %d below its token %d", op.key, op.index, op.token)
			bad[op] = true
		case !match:
			f.errs.addf("read of %s at index %d..%d on party %d returned %q, chain holds %q", op.key, op.index, upper, op.gw, trim(op.got), trim(want))
			bad[op] = true
		}
	}
	for _, op := range g.ops {
		if !op.read {
			f.submits++
			if op.rejected {
				f.rejected++
			}
			if op.err == nil {
				if op.badAck != "" {
					f.errs.addf("%s", op.badAck)
					bad[op] = true
				} else if r, ok := carried[idRound{op.client, op.seq}]; !ok || r != op.token {
					f.errs.addf("c%d.%d acked at round %d but committed at round %d", op.client, op.seq, op.token, r)
					bad[op] = true
				}
			}
		}
		if !op.counted {
			continue
		}
		f.attempted++
		f.lateMs = append(f.lateMs, ms(op.sent.Sub(op.due)))
		lat := op.done.Sub(op.due)
		if op.err != nil || bad[op] || lat > kvLimit {
			continue
		}
		f.ok++
		if op.read {
			f.readMs = append(f.readMs, ms(lat))
		} else {
			f.commitMs = append(f.commitMs, ms(lat))
			if i := int(op.due.Sub(f.from) / sliceLen); i < len(f.commitSlices) {
				f.commitSlices[i] = append(f.commitSlices[i], ms(lat))
			}
		}
	}
}

func trim(b []byte) string {
	if len(b) > 16 {
		return string(b[:16]) + "…"
	}
	return string(b)
}
