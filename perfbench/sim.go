package main

import (
	"fmt"
	"math/rand"
	"time"

	"icc/internal/adversary"
	"icc/internal/beacon"
	"icc/internal/core"
	"icc/internal/crypto/aggsig"
	"icc/internal/crypto/keys"
	"icc/internal/gossip"
	"icc/internal/metrics"
	"icc/internal/pool"
	"icc/internal/simnet"
	"icc/internal/statemachine"
	"icc/internal/types"
)

// gossip-n31-sim: a deterministic discrete-event simulation of 31
// parties running ICC1 with the facade's shipping gossip configuration,
// 3 of them crashed from birth. Everything but CPU is in virtual time,
// so for one seed every virtual figure repeats exactly.
const (
	simN       = 31
	simCrashed = 3
	simDelta   = 10 * time.Millisecond // fixed one-way delay δ
	simBound   = 50 * time.Millisecond // Δbnd
	simRate    = 500                   // commands per virtual second
	simBlocks  = 80                    // finalized blocks per simulation
	simLimit   = 2 * time.Second       // latency limit, virtual
	simSlice   = 10                    // blocks per CPU sample
	simKeys    = 1024
	simValue   = 64
)

// simOp is one command of the virtual open-loop schedule.
type simOp struct {
	replica  int
	seq      uint64
	due      time.Duration
	included time.Duration // first proposal carrying it (traced runs)
	ackAt    time.Duration
	inc, ack bool
}

// simCluster is one assembled simulation. It differs from harness.New
// (the simulation facade) only where harness offers no hook: each layer
// is wrapped for timing, and the payload source is a shared mempool fed
// by the command schedule.
type simCluster struct {
	net     *simnet.Network
	rec     *metrics.Recorder
	led     *ledger
	kvs     []*statemachine.KV
	queue   *statemachine.Queue
	live    []int
	crashed []int
	ref     int // reference party for block times

	ops     []simOp
	byIdent map[[2]uint64]int
	nextSeq []uint64
	keyRng  *rand.Rand
	arrive  bool // schedule still producing commands
	unacked int

	refTimes      []time.Duration
	cpuMarks      []time.Duration // process CPU every simSlice reference blocks
	cmdsCommitted int             // commands in the reference party's blocks
	proposals     int64
	errs          *checkErr
	spans         *spans
}

// buildSim assembles the cluster from the seed: key dealing, the crash
// set and the gossip topology all derive from it, and nothing reads
// crypto/rand.
func buildSim(seed int64, rec *spans, errs *checkErr) (*simCluster, error) {
	pub, privs, err := keys.DealScheme(newSeedReader(seed, "sim-keys"), simN, aggsig.SchemeMultisig)
	if err != nil {
		return nil, fmt.Errorf("dealing keys: %w", err)
	}
	crash := make(map[int]bool, simCrashed)
	for _, p := range rand.New(rand.NewSource(subSeed(seed, "sim-crash"))).Perm(simN)[:simCrashed] {
		crash[p] = true
	}
	c := &simCluster{
		rec:     metrics.NewRecorder(simN),
		led:     newLedger(simN),
		kvs:     make([]*statemachine.KV, simN),
		queue:   statemachine.NewQueue(),
		ref:     -1,
		byIdent: make(map[[2]uint64]int),
		nextSeq: make([]uint64, simN),
		keyRng:  rand.New(rand.NewSource(subSeed(seed, "sim-cmds"))),
		arrive:  true,
		errs:    errs,
	}
	c.net = simnet.New(simnet.Options{
		Seed:     subSeed(seed, "sim-net"),
		Delay:    simnet.Fixed{D: simDelta},
		Recorder: c.rec,
	})
	topology := subSeed(seed, "sim-topology")
	for i := 0; i < simN; i++ {
		pid := types.PartyID(i)
		if crash[i] {
			c.crashed = append(c.crashed, i)
			c.net.AddNode(adversary.NewSilent(pid), false)
			continue
		}
		c.live = append(c.live, i)
		if c.ref < 0 {
			c.ref = i
		}
		c.kvs[i] = statemachine.NewKV()
		var st *loopStack
		if rec != nil {
			st = &loopStack{rec: rec, party: i}
		}
		bcn := beacon.NewSimulated(simN, pid, pub.GenesisSeed)
		payload := &tracedPayload{inner: c.queue, st: st}
		if rec != nil {
			payload.included = c.noteIncluded
		}
		i := i
		inner := core.NewEngine(core.Config{
			Self:       pid,
			Keys:       pub,
			Priv:       privs[i],
			Beacon:     bcn,
			DeltaBound: simBound,
			Payload:    payload,
			Pool: pool.Options{Verifier: &tracedVerifier{
				inner: pool.NewVerifier(pub, pool.VerifyFull), name: "verify.pool", st: st, party: i,
			}},
			Hooks: core.Hooks{
				OnCommit:  func(b *types.Block, now time.Duration) { c.commit(i, st, b, now) },
				OnPropose: func(types.Round, time.Duration) { c.proposals++ },
			},
		})
		g, err := gossip.New(gossip.Config{
			Self:             pid,
			N:                simN,
			Fanout:           defaultFanout(simN),
			Seed:             topology,
			ShareBatchWindow: 2 * time.Millisecond,
			AdaptiveBatch:    true,
			Aggregate:        true,
			// No verify pipeline runs in front of the simulated pool, so
			// relays verify shares while combining (the facade trusts
			// them only because its pipeline checked them first).
			TrustShares: false,
			Keys:        pub,
			Outputs:     bcn,
		}, &tracedEngine{Engine: inner, name: "core.step", st: st, setNow: c.advance})
		if err != nil {
			return nil, fmt.Errorf("party %d gossip: %w", i, err)
		}
		c.net.AddNode(&tracedEngine{Engine: g, name: "gossip.step", st: st}, true)
	}
	return c, nil
}

// defaultFanout is the facade's ICC1 overlay degree: ≈ 2·log₂ n + 2.
func defaultFanout(n int) int {
	f := 2
	for v := n; v > 1; v >>= 1 {
		f += 2
	}
	if f > n-1 {
		f = n - 1
	}
	return f
}

// advance feeds the mempool every command due by virtual time now. It
// runs before each engine call, so a command waits in the schedule no
// longer than the gap between simulator events; latency counts from
// the due time regardless.
func (c *simCluster) advance(now time.Duration) {
	for c.arrive {
		j := len(c.ops)
		due := time.Duration(j) * time.Second / simRate
		if due > now {
			return
		}
		replica := c.live[j%len(c.live)]
		c.nextSeq[replica]++
		op := simOp{replica: replica, seq: c.nextSeq[replica], due: due}
		key := fmt.Sprintf("k%04d", c.keyRng.Intn(simKeys))
		cmd := statemachine.Command{
			Client: uint64(replica) + 1, Seq: op.seq, Op: statemachine.OpSet,
			Key: key, Value: commandValue(uint64(replica)+1, op.seq, simValue),
		}
		c.ops = append(c.ops, op)
		c.unacked++
		c.byIdent[[2]uint64{cmd.Client, cmd.Seq}] = j
		if err := c.queue.TrySubmit(cmd); err != nil {
			c.errs.addf("mempool refused command %d: %v", j, err)
		}
	}
}

// commit applies a finalized block at party p and acknowledges the
// commands p took, checking each ack is visible in p's store.
func (c *simCluster) commit(p int, st *loopStack, b *types.Block, now time.Duration) {
	st.begin("statemachine.apply", roundCorr(b.Round))
	defer st.end()
	c.led.add(p, b)
	kv := c.kvs[p]
	if err := kv.Apply(b.Payload); err != nil {
		c.errs.addf("party %d: apply round %d: %v", p, b.Round, err)
	}
	c.queue.MarkCommitted(b.Payload)
	cmds, _ := statemachine.DecodePayload(b.Payload) // Apply succeeded on the same bytes
	if p == c.ref {
		c.refTimes = append(c.refTimes, now)
		c.cmdsCommitted += len(cmds)
		if len(c.refTimes)%simSlice == 0 {
			c.cpuMarks = append(c.cpuMarks, cpuTime())
		}
	}
	for _, cmd := range cmds {
		if cmd.Client != uint64(p)+1 {
			continue
		}
		j, ok := c.byIdent[[2]uint64{cmd.Client, cmd.Seq}]
		if !ok || c.ops[j].ack {
			continue
		}
		if kv.AppliedSeq(cmd.Client) < cmd.Seq {
			c.errs.addf("party %d acked c%d.%d before applying it", p, cmd.Client, cmd.Seq)
		}
		c.ops[j].ack = true
		c.ops[j].ackAt = now
		c.unacked--
	}
}

func (c *simCluster) noteIncluded(cmds []statemachine.Command) {
	now := c.net.Now()
	for _, cmd := range cmds {
		if j, ok := c.byIdent[[2]uint64{cmd.Client, cmd.Seq}]; ok && !c.ops[j].inc {
			c.ops[j].inc = true
			c.ops[j].included = now
		}
	}
}

func (c *simCluster) allAcked() bool { return c.unacked == 0 }

// run drives the simulation to the given count of finalized blocks at the
// reference party, stops the command schedule, and drains until every
// command is acknowledged or its latency limit has passed. It returns
// the reference height every live party must reach.
func (c *simCluster) run(blocks int) int {
	c.net.Start()
	if !c.net.RunUntil(func() bool { return c.led.height(c.ref) >= blocks }, time.Hour) {
		c.errs.addf("simulation stopped before %d blocks (%d)", blocks, c.led.height(c.ref))
	}
	c.arrive = false
	end := c.net.Now() + simLimit
	c.net.RunUntil(c.allAcked, end)
	// Let every live party catch up with the reference before comparing
	// stores.
	target := c.led.height(c.ref)
	c.net.RunUntil(func() bool {
		for _, p := range c.live {
			if c.led.height(p) < target {
				return false
			}
		}
		return true
	}, c.net.Now()+simLimit)
	return target
}

// check runs the simulation's correctness gates: prefix agreement, every
// live party caught up, and equal stores. Once every command is acked
// the later blocks are empty, so stores compare at any height past it.
func (c *simCluster) check(target int) {
	c.led.check(c.errs)
	want := c.kvs[c.ref].StateHash()
	for _, p := range c.live {
		if c.led.height(p) < target {
			c.errs.addf("party %d stuck at height %d, reference at %d", p, c.led.height(p), target)
		}
		if c.kvs[p].StateHash() != want {
			c.errs.addf("party %d store differs from party %d", p, c.ref)
		}
	}
}
