package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans on a party's engine loop
// nest (a beacon reveal inside an engine step); spans on other
// goroutines (verify workers, client submits) are roots.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Party  int    `json:"party"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	Corr   string `json:"corr,omitempty"` // "r<round>" or "c<client>.<seq>"
}

// spanStats aggregates every span of one name, whether or not the span
// itself fit in the bounded buffer.
type spanStats struct {
	count   int64
	totalNs int64
	selfNs  int64
	durs    []float64 // ms, for percentiles
}

// spans records layer spans for the traced run: aggregates are exact,
// the raw spans are kept in a bounded buffer whose overflow is counted.
// A nil *spans records nothing, so untraced runs pay one nil check.
type spans struct {
	epoch  time.Time
	nextID atomic.Int64

	mu      sync.Mutex
	buf     []span
	cap     int
	dropped int64
	stats   map[string]*spanStats
}

func newSpans(capacity int) *spans {
	return &spans{epoch: time.Now(), cap: capacity, stats: make(map[string]*spanStats)}
}

// now is the recorder's clock: nanoseconds since the recorder started.
func (s *spans) now() int64 { return int64(time.Since(s.epoch)) }

// start reads the clock for a root span (0 when not recording).
func (s *spans) start() int64 {
	if s == nil {
		return 0
	}
	return s.now()
}

// record stores one finished span whose ID is already assigned.
func (s *spans) record(sp span, childNs int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp.Self = sp.End - sp.Start - childNs
	st := s.stats[sp.Name]
	if st == nil {
		st = &spanStats{}
		s.stats[sp.Name] = st
	}
	st.count++
	st.totalNs += sp.End - sp.Start
	st.selfNs += sp.Self
	st.durs = append(st.durs, float64(sp.End-sp.Start)/1e6)
	if len(s.buf) < s.cap {
		s.buf = append(s.buf, sp)
	} else {
		s.dropped++
	}
}

// root records a span with no parent (called from any goroutine).
func (s *spans) root(name string, party int, start int64, corr string) {
	if s == nil {
		return
	}
	s.record(span{ID: s.nextID.Add(1), Name: name, Party: party, Start: start, End: s.now(), Corr: corr}, 0)
}

// get returns the aggregate for a span name (zero value when absent).
func (s *spans) get(name string) spanStats {
	if s == nil {
		return spanStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.stats[name]; st != nil {
		return *st
	}
	return spanStats{}
}

// write dumps the retained spans as JSON lines, led by an accounting
// header, so a truncated record is never mistaken for a complete one.
func (s *spans) write(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	_ = enc.Encode(map[string]any{
		"header": true, "retained": len(s.buf), "dropped": s.dropped, "cap": s.cap,
	})
	for i := range s.buf {
		_ = enc.Encode(&s.buf[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}

// loopStack tracks the open spans of one party's engine loop. It is
// owned by that loop's goroutine (the runner goroutine of a live party,
// the single event goroutine of the simulation), so it needs no lock.
type loopStack struct {
	rec   *spans
	party int
	open  []frame
}

type frame struct {
	id      int64
	name    string
	start   int64
	childNs int64
	corr    string
}

// begin opens a span; every begin is paired with end on the same loop.
func (l *loopStack) begin(name, corr string) {
	if l == nil {
		return
	}
	l.open = append(l.open, frame{id: l.rec.nextID.Add(1), name: name, start: l.rec.now(), corr: corr})
}

// end closes the innermost span and charges its duration to its parent.
func (l *loopStack) end() {
	if l == nil {
		return
	}
	top := l.open[len(l.open)-1]
	l.open = l.open[:len(l.open)-1]
	endNs := l.rec.now()
	var parent int64
	if len(l.open) > 0 {
		p := &l.open[len(l.open)-1]
		p.childNs += endNs - top.start
		parent = p.id
	}
	l.rec.record(span{
		ID: top.id, Name: top.name, Party: l.party, Start: top.start, End: endNs,
		Parent: parent, Corr: top.corr,
	}, top.childNs)
}
