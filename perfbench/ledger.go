package main

import (
	"sync"

	"icc/internal/crypto/hash"
	"icc/internal/types"
)

// ledger records every party's committed chain for the agreement gate:
// all parties must output the same block hash at each position, each
// chain hash-linked with strictly increasing rounds.
type ledger struct {
	mu     sync.Mutex
	blocks [][]committed
}

type committed struct {
	round  types.Round
	hash   hash.Digest
	parent hash.Digest
}

func newLedger(n int) *ledger { return &ledger{blocks: make([][]committed, n)} }

func (l *ledger) add(p int, b *types.Block) {
	c := committed{round: b.Round, hash: b.Hash(), parent: b.ParentHash}
	l.mu.Lock()
	l.blocks[p] = append(l.blocks[p], c)
	l.mu.Unlock()
}

func (l *ledger) height(p int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.blocks[p])
}

// chain returns a copy of party p's committed sequence.
func (l *ledger) chain(p int) []committed {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]committed(nil), l.blocks[p]...)
}

// corrupt flips party p's recorded hash at height h, so a test can
// show the agreement gate fails a run.
func (l *ledger) corrupt(p, h int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if h < len(l.blocks[p]) {
		l.blocks[p][h].hash[0] ^= 0xff
	}
}

// check reports every disagreement between parties' committed sequences.
func (l *ledger) check(errs *checkErr) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var longest []committed
	for _, seq := range l.blocks {
		if len(seq) > len(longest) {
			longest = seq
		}
	}
	for p, seq := range l.blocks {
		for i, c := range seq {
			if c.hash != longest[i].hash {
				errs.addf("party %d diverges at height %d (round %d)", p, i, c.round)
				break
			}
			if i > 0 && (c.parent != seq[i-1].hash || c.round <= seq[i-1].round) {
				errs.addf("party %d: block at height %d does not extend its predecessor", p, i)
				break
			}
		}
	}
}
