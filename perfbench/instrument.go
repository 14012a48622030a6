package main

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"icc/internal/beacon"
	"icc/internal/core"
	"icc/internal/crypto/hash"
	"icc/internal/engine"
	"icc/internal/pool"
	"icc/internal/statemachine"
	"icc/internal/transport"
	"icc/internal/types"
)

// The wrappers in this file time calls into each layer's public
// interface from outside the layer. Each holds a *loopStack that is nil
// in untraced runs, so the untraced path adds one nil check per call.

func roundCorr(k types.Round) string { return "r" + strconv.FormatUint(uint64(k), 10) }

// tracedEngine times an engine.Engine: "core.step" around the ICC engine
// itself, "gossip.step" around the ICC1 gossip layer that wraps it.
type tracedEngine struct {
	engine.Engine
	name string
	st   *loopStack
	// setNow, when set, is told the host's time before every call (the
	// simulation's payload source and command schedule run on it).
	setNow func(time.Duration)
	// ingress, when set, records each message's wait from arrival at
	// the party to delivery into the engine.
	ingress *ingressClock
}

func (e *tracedEngine) before(now time.Duration) {
	if e.setNow != nil {
		e.setNow(now)
	}
	if e.st != nil {
		e.st.begin(e.name, roundCorr(e.Engine.CurrentRound()))
	}
}

func (e *tracedEngine) after(outs []engine.Output) []engine.Output {
	e.st.end()
	return outs
}

func (e *tracedEngine) Init(now time.Duration) []engine.Output {
	e.before(now)
	return e.after(e.Engine.Init(now))
}

func (e *tracedEngine) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	e.ingress.delivered(m)
	e.before(now)
	return e.after(e.Engine.HandleMessage(from, m, now))
}

func (e *tracedEngine) Tick(now time.Duration) []engine.Output {
	e.before(now)
	return e.after(e.Engine.Tick(now))
}

// tracedBeacon times the threshold beacon's crypto: signing the own
// share, admitting a peer share, and combining shares into R_k.
type tracedBeacon struct {
	beacon.Source
	st       *loopStack
	revealOK atomic.Int64
}

func (b *tracedBeacon) ShareForRound(k types.Round) (*types.BeaconShare, error) {
	b.st.begin("beacon.sign", roundCorr(k))
	defer b.st.end()
	return b.Source.ShareForRound(k)
}

func (b *tracedBeacon) AddShare(s *types.BeaconShare) (bool, error) {
	b.st.begin("beacon.add", roundCorr(s.Round))
	defer b.st.end()
	return b.Source.AddShare(s)
}

func (b *tracedBeacon) Reveal(k types.Round) (hash.Digest, bool) {
	b.st.begin("beacon.reveal", roundCorr(k))
	d, ok := b.Source.Reveal(k)
	b.st.end()
	if ok {
		b.revealOK.Add(1)
	}
	return d, ok
}

// tracedVerifier times a pool.Verifier. On an engine loop (st set) its
// spans nest under the engine step; on verify-pipeline workers (rec set)
// they are roots.
type tracedVerifier struct {
	inner pool.Verifier
	name  string
	st    *loopStack
	rec   *spans
	party int
}

func (v *tracedVerifier) time(round types.Round, f func() error) error {
	if v.st != nil {
		v.st.begin(v.name, roundCorr(round))
		defer v.st.end()
		return f()
	}
	if v.rec == nil {
		return f()
	}
	start := v.rec.now()
	err := f()
	v.rec.root(v.name, v.party, start, roundCorr(round))
	return err
}

func (v *tracedVerifier) Authenticator(a *types.Authenticator) error {
	return v.time(a.Round, func() error { return v.inner.Authenticator(a) })
}

func (v *tracedVerifier) NotarizationShare(s *types.NotarizationShare) error {
	return v.time(s.Round, func() error { return v.inner.NotarizationShare(s) })
}

func (v *tracedVerifier) Notarization(nz *types.Notarization) error {
	return v.time(nz.Round, func() error { return v.inner.Notarization(nz) })
}

func (v *tracedVerifier) FinalizationShare(s *types.FinalizationShare) error {
	return v.time(s.Round, func() error { return v.inner.FinalizationShare(s) })
}

func (v *tracedVerifier) Finalization(f *types.Finalization) error {
	return v.time(f.Round, func() error { return v.inner.Finalization(f) })
}

// tracedPayload times core.PayloadSource and, in the traced run, notes
// when each command is first included in a proposal.
type tracedPayload struct {
	inner    core.PayloadSource
	st       *loopStack
	included func(cmds []statemachine.Command)
}

func (p *tracedPayload) GetPayload(k types.Round, parent *types.Block, lookup func(hash.Digest) *types.Block) []byte {
	p.st.begin("statemachine.payload", roundCorr(k))
	out := p.inner.GetPayload(k, parent, lookup)
	p.st.end()
	if p.included != nil && len(out) > 0 {
		if cmds, err := statemachine.DecodePayload(out); err == nil {
			p.included(cmds)
		}
	}
	return out
}

// inclusionClock measures how long a submitted command waits in its
// replica's queue before a proposal first carries it.
type inclusionClock struct {
	mu    sync.Mutex
	sent  map[[2]uint64]time.Time
	waits []float64 // ms
}

func newInclusionClock() *inclusionClock {
	return &inclusionClock{sent: make(map[[2]uint64]time.Time)}
}

func (c *inclusionClock) submitted(client, seq uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.sent[[2]uint64{client, seq}] = time.Now()
	c.mu.Unlock()
}

func (c *inclusionClock) included(cmds []statemachine.Command) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cmd := range cmds {
		id := [2]uint64{cmd.Client, cmd.Seq}
		if t, ok := c.sent[id]; ok {
			delete(c.sent, id)
			c.waits = append(c.waits, ms(now.Sub(t)))
		}
	}
}

func (c *inclusionClock) samples() []float64 {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.waits...)
}

// ingressClock stamps messages as they reach a party and reports the
// wait until the engine receives them (through the verify pipeline on
// live clusters). Messages the pipeline drops or rewrites are never
// matched and so never sampled.
type ingressClock struct {
	mu      sync.Mutex
	arrived map[types.Message]time.Time
	waits   []float64 // ms
}

// ingressCap bounds the stamps awaiting delivery; on overflow the
// oldest stamps are forgotten wholesale (they belong to messages the
// pipeline discarded).
const ingressCap = 1 << 16

func newIngressClock() *ingressClock {
	return &ingressClock{arrived: make(map[types.Message]time.Time)}
}

func (c *ingressClock) arrive(m types.Message) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if len(c.arrived) >= ingressCap {
		c.arrived = make(map[types.Message]time.Time)
	}
	c.arrived[m] = time.Now()
	c.mu.Unlock()
}

func (c *ingressClock) delivered(m types.Message) {
	if c == nil {
		return
	}
	now := time.Now()
	c.mu.Lock()
	if t, ok := c.arrived[m]; ok {
		delete(c.arrived, m)
		c.waits = append(c.waits, ms(now.Sub(t)))
	}
	c.mu.Unlock()
}

func (c *ingressClock) samples() []float64 {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.waits...)
}

// linkStats counts what one party's endpoint sends.
type linkStats struct {
	msgs    atomic.Int64
	bytes   atomic.Int64
	sendErr atomic.Int64
}

// count records one sent message and its wire size.
func (l *linkStats) count(m types.Message) {
	l.msgs.Add(1)
	l.bytes.Add(int64(len(types.Marshal(m))))
}

// delayEndpoint wraps a transport.Endpoint: it counts sent messages and
// their wire bytes, and holds every received message for a fixed
// one-way delay before the runner sees it (FIFO, so per-link order is
// kept). The hold queue is unbounded: backpressure stays where the
// wrapped transport puts it.
type delayEndpoint struct {
	inner   transport.Endpoint
	delay   time.Duration
	stats   *linkStats
	st      *loopStack // transport.send spans (runner goroutine)
	ingress *ingressClock

	out      chan transport.Envelope
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu      sync.Mutex
	held    []heldEnv
	wake    chan struct{}
	drained bool
}

type heldEnv struct {
	env transport.Envelope
	due time.Time
}

func newDelayEndpoint(inner transport.Endpoint, delay time.Duration, stats *linkStats, st *loopStack, ingress *ingressClock) *delayEndpoint {
	d := &delayEndpoint{
		inner:   inner,
		delay:   delay,
		stats:   stats,
		st:      st,
		ingress: ingress,
		// A round's messages fall due together; the buffer lets one
		// round's burst through without stalling the delay clock.
		out:  make(chan transport.Envelope, 1024),
		stop: make(chan struct{}),
		wake: make(chan struct{}, 1),
	}
	d.wg.Add(2)
	go d.receive()
	go d.deliver()
	return d
}

func (d *delayEndpoint) Send(to types.PartyID, m types.Message) error {
	d.st.begin("transport.send", "")
	d.stats.count(m)
	err := d.inner.Send(to, m)
	d.st.end()
	if err != nil {
		d.stats.sendErr.Add(1)
	}
	return err
}

func (d *delayEndpoint) Inbox() <-chan transport.Envelope { return d.out }

// Close stops delivery and closes the wrapped endpoint; wait blocks
// until both pump goroutines have exited (the in-process hub must be
// closed in between, since its inboxes close only then).
func (d *delayEndpoint) Close() error {
	d.stopOnce.Do(func() { close(d.stop) })
	return d.inner.Close()
}

func (d *delayEndpoint) wait() { d.wg.Wait() }

func (d *delayEndpoint) receive() {
	defer d.wg.Done()
	for env := range d.inner.Inbox() {
		d.mu.Lock()
		d.held = append(d.held, heldEnv{env: env, due: time.Now().Add(d.delay)})
		d.mu.Unlock()
		select {
		case d.wake <- struct{}{}:
		default:
		}
	}
	d.mu.Lock()
	d.drained = true
	d.mu.Unlock()
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

func (d *delayEndpoint) deliver() {
	defer d.wg.Done()
	defer close(d.out)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		d.mu.Lock()
		if len(d.held) == 0 {
			drained := d.drained
			d.mu.Unlock()
			if drained {
				return
			}
			select {
			case <-d.stop:
				return
			case <-d.wake:
			}
			continue
		}
		next := d.held[0]
		d.mu.Unlock()
		if wait := time.Until(next.due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-d.stop:
				return
			case <-timer.C:
			}
		}
		d.mu.Lock()
		d.held[0] = heldEnv{}
		d.held = d.held[1:]
		d.mu.Unlock()
		d.ingress.arrive(next.env.Msg)
		select {
		case <-d.stop:
			return
		case d.out <- next.env:
		}
	}
}
