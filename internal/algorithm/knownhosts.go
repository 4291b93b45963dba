package algorithm

import (
	"math/rand"

	"repro/internal/message"
)

// KnownHosts is the local membership view the paper's iAlgorithm keeps:
// the set of initial nodes recorded from the bootstrap message plus any
// peers discovered later. It preserves insertion order for deterministic
// iteration. It is used from within Process only and therefore
// needs no locking — the whole point of the single-threaded algorithm
// guarantee.
type KnownHosts struct {
	order []message.NodeID
	index map[message.NodeID]int
}

// NewKnownHosts returns an empty membership view.
func NewKnownHosts() *KnownHosts {
	return &KnownHosts{index: make(map[message.NodeID]int)}
}

// Add inserts a host, reporting whether it was new.
func (k *KnownHosts) Add(id message.NodeID) bool {
	if id.IsZero() {
		return false
	}
	if _, ok := k.index[id]; ok {
		return false
	}
	k.index[id] = len(k.order)
	k.order = append(k.order, id)
	return true
}

// Remove deletes a host, reporting whether it was present.
func (k *KnownHosts) Remove(id message.NodeID) bool {
	pos, ok := k.index[id]
	if !ok {
		return false
	}
	delete(k.index, id)
	k.order = append(k.order[:pos], k.order[pos+1:]...)
	for i := pos; i < len(k.order); i++ {
		k.index[k.order[i]] = i
	}
	return true
}

// Contains reports membership.
func (k *KnownHosts) Contains(id message.NodeID) bool {
	_, ok := k.index[id]
	return ok
}

// Len reports the number of known hosts.
func (k *KnownHosts) Len() int { return len(k.order) }

// All returns the hosts in insertion order; the slice is a copy.
func (k *KnownHosts) All() []message.NodeID {
	out := make([]message.NodeID, len(k.order))
	copy(out, k.order)
	return out
}

// Random returns up to n distinct hosts sampled without replacement.
func (k *KnownHosts) Random(n int, rng *rand.Rand) []message.NodeID {
	if n >= len(k.order) {
		return k.All()
	}
	perm := rng.Perm(len(k.order))
	out := make([]message.NodeID, 0, n)
	for _, i := range perm[:n] {
		out = append(out, k.order[i])
	}
	return out
}
