// Package baseline implements the two programming systems the paper
// compares PLATINUM against on the same hardware (§5.1, §8):
//
//   - SMP-style structured message passing (LeBlanc's library): threads
//     communicate only through ports, never through shared memory, so
//     data location is managed entirely by explicit sends. Implemented
//     here as a mesh of pairwise ports over the PLATINUM kernel's port
//     abstraction, with a tree broadcast.
//
//   - Uniform System-style static shared memory: shared data is
//     scattered over all memory modules at startup and never moves;
//     every access from a non-home processor is a remote reference.
//     Implemented as a kernel booted with the NeverCache policy; the
//     program places its pages with kernel.Space.PlaceAt.
package baseline

import (
	"fmt"

	"platinum/internal/kernel"
)

// Mesh is an n-way set of pairwise channels: one port per ordered
// (from, to) processor pair, like SMP's fully connected process graph.
type Mesh struct {
	n     int
	ports [][]*kernel.Port
}

// NewMesh builds the n² ports of an n-member mesh.
func NewMesh(k *kernel.Kernel, name string, n int) (*Mesh, error) {
	if n <= 0 {
		return nil, fmt.Errorf("baseline: mesh of %d members", n)
	}
	m := &Mesh{n: n, ports: make([][]*kernel.Port, n)}
	for from := 0; from < n; from++ {
		m.ports[from] = make([]*kernel.Port, n)
		for to := 0; to < n; to++ {
			if from == to {
				continue
			}
			p, err := k.NewPort(fmt.Sprintf("%s[%d->%d]", name, from, to))
			if err != nil {
				return nil, err
			}
			m.ports[from][to] = p
		}
	}
	return m, nil
}

// Send transmits msg from member `from` to member `to`.
func (m *Mesh) Send(t *kernel.Thread, from, to int, msg []uint32) {
	t.Send(m.ports[from][to], msg)
}

// Recv receives the next message sent from member `from` to member `me`.
func (m *Mesh) Recv(t *kernel.Thread, me, from int) []uint32 {
	return t.Receive(m.ports[from][me])
}

// Bcast distributes msg from root to all members along a recursive-
// doubling binomial tree: the set of members holding the message doubles
// each step, so the critical path is O(log n) sends rather than n.
// Every member (including the root) must call Bcast with its own id;
// the received (or original) message is returned.
func (m *Mesh) Bcast(t *kernel.Thread, me, root int, msg []uint32) []uint32 {
	rank := (me - root + m.n) % m.n
	if rank != 0 {
		// Receive from the parent: rank with its highest set bit cleared.
		parent := rank &^ highestBit(rank)
		msg = m.Recv(t, me, (parent+root)%m.n)
	}
	// At step 2^t (for every 2^t > rank) members below 2^t send to
	// rank + 2^t.
	for step := nextPow2Above(rank); rank+step < m.n; step <<= 1 {
		m.Send(t, me, (rank+step+root)%m.n, msg)
	}
	return msg
}

// highestBit returns the highest set bit of v > 0.
func highestBit(v int) int {
	b := 1
	for b<<1 <= v {
		b <<= 1
	}
	return b
}

// nextPow2Above returns the smallest power of two strictly greater
// than v (1 for v = 0).
func nextPow2Above(v int) int {
	if v == 0 {
		return 1
	}
	return highestBit(v) << 1
}
