package statemachine

import (
	"fmt"
	"sort"
	"sync"

	"icc/internal/crypto/hash"
	"icc/internal/types"
)

// KV is a deterministic replicated key-value store. Every replica applies
// the same committed payloads in the same order and reaches the same
// state; StateHash gives a comparable fingerprint.
type KV struct {
	mu      sync.Mutex
	data    map[string][]byte
	applied map[uint64]uint64 // client → highest applied seq
	ops     uint64            // total applied operations
}

// NewKV creates an empty store.
func NewKV() *KV {
	return &KV{
		data:    make(map[string][]byte),
		applied: make(map[uint64]uint64),
	}
}

// Apply executes a committed payload. Commands with (client, seq) at or
// below the client's applied watermark are skipped — exactly-once
// semantics across duplicate proposals.
func (kv *KV) Apply(payload []byte) error {
	cmds, err := DecodePayload(payload)
	if err != nil {
		return err
	}
	kv.mu.Lock()
	defer kv.mu.Unlock()
	for _, c := range cmds {
		if c.Seq <= kv.applied[c.Client] {
			continue
		}
		kv.applied[c.Client] = c.Seq
		kv.ops++
		switch c.Op {
		case OpSet:
			kv.data[c.Key] = append([]byte(nil), c.Value...)
		case OpDelete:
			delete(kv.data, c.Key)
		case OpAppend:
			kv.data[c.Key] = append(kv.data[c.Key], c.Value...)
		}
	}
	return nil
}

// Get returns the value for a key.
func (kv *KV) Get(key string) ([]byte, bool) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	v, ok := kv.data[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// GetWithOps is Get that also returns AppliedOps of the state it read,
// taken atomically with the value: equal counts mean equal states.
func (kv *KV) GetWithOps(key string) ([]byte, bool, uint64) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	v, ok := kv.data[key]
	if !ok {
		return nil, false, kv.ops
	}
	return append([]byte(nil), v...), true, kv.ops
}

// Len returns the number of keys.
func (kv *KV) Len() int {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return len(kv.data)
}

// AppliedSeq returns the highest Seq applied for a client (0 when the
// client has never committed a command here) — the gateway uses it to
// distinguish a resubmission of an already-finalized command from a
// fresh one.
func (kv *KV) AppliedSeq(client uint64) uint64 {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return kv.applied[client]
}

// AppliedOps returns the number of operations applied.
func (kv *KV) AppliedOps() uint64 {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return kv.ops
}

// StateHash returns a deterministic fingerprint of the current state.
func (kv *KV) StateHash() hash.Digest {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	keys := make([]string, 0, len(kv.data))
	for k := range kv.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	chunks := make([][]byte, 0, 2*len(keys))
	for _, k := range keys {
		chunks = append(chunks, []byte(k), kv.data[k])
	}
	return hash.Sum(hash.DomainState, chunks...)
}

// Snapshot serialises the full replica state deterministically — the
// checkpointing building block the paper notes every practical
// replicated state machine needs (§3.1, referencing PBFT's checkpoint
// mechanism): a node that restores a snapshot and replays blocks after
// the checkpoint reaches the same state as one that executed everything,
// and pools can be pruned up to the checkpoint round.
func (kv *KV) Snapshot() []byte {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	keys := make([]string, 0, len(kv.data))
	for k := range kv.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	clients := make([]uint64, 0, len(kv.applied))
	for c := range kv.applied {
		clients = append(clients, c)
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })

	e := types.NewEncoder(64 * (len(keys) + len(clients)))
	e.U64(kv.ops)
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		e.VarBytes([]byte(k))
		e.VarBytes(kv.data[k])
	}
	e.U32(uint32(len(clients)))
	for _, c := range clients {
		e.U64(c)
		e.U64(kv.applied[c])
	}
	return e.Bytes()
}

// Restore replaces this replica's state in place with a snapshot — the
// checkpoint-install path, where the engine holds a live *KV whose
// identity (captured in closures and serving reads) must not change.
// On a decode error the existing state is left untouched.
func (kv *KV) Restore(snapshot []byte) error {
	next, err := RestoreKV(snapshot)
	if err != nil {
		return err
	}
	kv.mu.Lock()
	kv.data = next.data
	kv.applied = next.applied
	kv.ops = next.ops
	kv.mu.Unlock()
	return nil
}

// RestoreKV reconstructs a replica from a snapshot.
func RestoreKV(snapshot []byte) (*KV, error) {
	d := types.NewDecoder(snapshot)
	kv := NewKV()
	kv.ops = d.U64()
	nKeys := int(d.U32())
	if d.Err() != nil {
		return nil, fmt.Errorf("statemachine: corrupt snapshot: %w", d.Err())
	}
	for i := 0; i < nKeys; i++ {
		k := d.VarBytes()
		v := d.VarBytes()
		if d.Err() != nil {
			return nil, fmt.Errorf("statemachine: corrupt snapshot: %w", d.Err())
		}
		kv.data[string(k)] = v
	}
	nClients := int(d.U32())
	if d.Err() != nil {
		return nil, fmt.Errorf("statemachine: corrupt snapshot: %w", d.Err())
	}
	for i := 0; i < nClients; i++ {
		c := d.U64()
		s := d.U64()
		kv.applied[c] = s
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("statemachine: corrupt snapshot: %w", err)
	}
	return kv, nil
}
