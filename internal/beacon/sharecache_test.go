package beacon

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"icc/internal/crypto/thresig"
	"icc/internal/types"
)

func TestShareForRoundCachesOwnShare(t *testing.T) {
	bs := cluster(t, 4)
	advance(t, bs, 1)
	first, err := bs[0].ShareForRound(2)
	if err != nil {
		t.Fatal(err)
	}
	// Shares are deterministic, so swap in another party's key: only a
	// cache hit can still return the first bytes.
	bs[0].sk = bs[1].sk
	again, err := bs[0].ShareForRound(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Share, again.Share) {
		t.Fatal("repeated ShareForRound re-signed instead of serving the cache")
	}
	if bs[0].CachedShares() == 0 {
		t.Fatal("cache empty after ShareForRound")
	}
}

func TestCachedShareForRound(t *testing.T) {
	bs := cluster(t, 4)
	advance(t, bs, 1)
	if _, ok := bs[0].CachedShareForRound(2); ok {
		t.Fatal("cache hit before any signing")
	}
	signed, err := bs[0].ShareForRound(2)
	if err != nil {
		t.Fatal(err)
	}
	cached, ok := bs[0].CachedShareForRound(2)
	if !ok {
		t.Fatal("cache miss after ShareForRound")
	}
	if cached.Round != 2 || cached.Signer != bs[0].self || !bytes.Equal(cached.Share, signed.Share) {
		t.Fatal("cached share differs from signed share")
	}
}

func TestShareCacheEviction(t *testing.T) {
	bs := cluster(t, 4)
	bs[0].SetShareCacheSize(2)
	for k := types.Round(1); k <= 3; k++ {
		advance(t, bs, k)
		if _, err := bs[0].ShareForRound(k); err != nil {
			t.Fatal(err)
		}
	}
	if got := bs[0].CachedShares(); got != 2 {
		t.Fatalf("cache holds %d entries, capacity 2", got)
	}
	// Round 1 is least recently used and must have been evicted.
	if _, ok := bs[0].CachedShareForRound(1); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := bs[0].CachedShareForRound(3); !ok {
		t.Fatal("most recent entry evicted")
	}
}

func TestShareCacheDisabled(t *testing.T) {
	bs := cluster(t, 4)
	bs[0].SetShareCacheSize(-1)
	advance(t, bs, 1)
	if _, err := bs[0].ShareForRound(2); err != nil {
		t.Fatal(err)
	}
	if _, ok := bs[0].CachedShareForRound(2); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if got := bs[0].CachedShares(); got != 0 {
		t.Fatalf("disabled cache holds %d entries", got)
	}
}

func TestPruneReturnsErrPruned(t *testing.T) {
	bs := cluster(t, 4)
	for k := types.Round(1); k <= 3; k++ {
		advance(t, bs, k)
		if _, err := bs[0].ShareForRound(k); err != nil {
			t.Fatal(err)
		}
	}
	bs[0].Prune(3)
	if _, err := bs[0].ShareForRound(1); !errors.Is(err, ErrPruned) {
		t.Fatalf("share below watermark: got %v, want ErrPruned", err)
	}
	if _, ok := bs[0].CachedShareForRound(2); ok {
		t.Fatal("cache hit below prune watermark")
	}
	// At and above the watermark signing still works.
	if _, err := bs[0].ShareForRound(3); err != nil {
		t.Fatalf("share at watermark: %v", err)
	}
	if _, err := bs[0].ShareForRound(4); err != nil {
		t.Fatalf("share after prune: %v", err)
	}
}

func TestSimulatedPruneReturnsErrPruned(t *testing.T) {
	s := NewSimulated(4, 0, []byte("genesis"))
	if _, err := s.ShareForRound(1); err != nil {
		t.Fatal(err)
	}
	s.Prune(2)
	if _, err := s.ShareForRound(1); !errors.Is(err, ErrPruned) {
		t.Fatalf("simulated share below watermark: got %v, want ErrPruned", err)
	}
	if _, ok := s.CachedShareForRound(1); ok {
		t.Fatal("simulated cache hit below prune watermark")
	}
}

func TestSimulatedShareCache(t *testing.T) {
	s := NewSimulated(4, 2, []byte("genesis"))
	if _, ok := s.CachedShareForRound(1); ok {
		t.Fatal("cache hit before signing")
	}
	sh, err := s.ShareForRound(1)
	if err != nil {
		t.Fatal(err)
	}
	cached, ok := s.CachedShareForRound(1)
	if !ok || cached.Round != sh.Round || cached.Signer != 2 {
		t.Fatal("simulated cache miss after ShareForRound")
	}
	s.SetShareCacheSize(-1)
	if _, ok := s.CachedShareForRound(1); ok {
		t.Fatal("hit after cache disabled")
	}
}

func TestCachedShareIsDefensiveCopy(t *testing.T) {
	bs := cluster(t, 4)
	first, err := bs[0].ShareForRound(1)
	if err != nil {
		t.Fatal(err)
	}
	first.Signer = 99 // caller mutation must not corrupt the cache
	again, err := bs[0].ShareForRound(1)
	if err != nil {
		t.Fatal(err)
	}
	if again.Signer != bs[0].self {
		t.Fatal("caller mutation leaked into the cache")
	}
}

// TestBeaconConcurrentAccess exercises the beacon from an engine-like
// goroutine and a backfill-worker-like goroutine at once; run with -race.
func TestBeaconConcurrentAccess(t *testing.T) {
	bs := cluster(t, 4)
	b := bs[0]
	for k := types.Round(1); k <= 8; k++ {
		advance(t, bs, k)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := types.Round(i%8 + 1)
				if seed%2 == 0 {
					if _, err := b.ShareForRound(k); err != nil {
						t.Errorf("ShareForRound(%d): %v", k, err)
						return
					}
				} else {
					b.CachedShareForRound(k)
					b.Digest(k)
					b.Leader(k)
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestSimulatedConcurrentAccess(t *testing.T) {
	s := NewSimulated(4, 0, []byte("genesis"))
	fill := func(k types.Round) {
		for p := types.PartyID(0); p < 4; p++ {
			_, _ = s.AddShare(&types.BeaconShare{Round: k, Signer: p, Share: make([]byte, thresig.SigShareLen)})
		}
		s.Reveal(k)
	}
	for k := types.Round(1); k <= 8; k++ {
		fill(k)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := types.Round(i%8 + 1)
				switch seed % 3 {
				case 0:
					_, _ = s.ShareForRound(k)
				case 1:
					s.CachedShareForRound(k)
					s.Have(k)
				default:
					s.Permutation(k)
					s.ShareCount(k)
				}
			}
		}(w)
	}
	wg.Wait()
}
