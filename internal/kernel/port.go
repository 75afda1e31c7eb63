package kernel

import (
	"fmt"

	"platinum/internal/sim"
)

// Port is a globally named message queue with any number of senders and
// receivers (§1.1). Messages are word arrays. Receive blocks when the
// queue is empty; Send never blocks. Ports provide both communication
// between threads that share no memory object and blocking
// synchronization.
type Port struct {
	msgs  [][]uint32
	recvQ []*Thread
}

// NewPort creates a port with a unique global name.
func (k *Kernel) NewPort(name string) (*Port, error) {
	if _, dup := k.ports[name]; dup {
		return nil, fmt.Errorf("kernel: port %q already exists", name)
	}
	p := &Port{}
	k.ports[name] = p
	return p, nil
}

// msgCost is the kernel cost of moving one message of words words
// across a port.
func msgCost(words int) sim.Time { return portOverhead + portPerWord*sim.Time(words) }

// Send enqueues a copy of data on the port, waking one blocked receiver
// if any. The send-side kernel cost is charged to t.
func (t *Thread) Send(p *Port, data []uint32) {
	msg := append([]uint32(nil), data...)
	t.st.Charge(sim.CauseKernel, msgCost(len(msg)))
	if len(p.recvQ) > 0 {
		r := p.recvQ[0]
		p.recvQ = p.recvQ[1:]
		r.inbox = append(r.inbox, msg)
		r.st.Unblock(t.st.Now())
		return
	}
	p.msgs = append(p.msgs, msg)
}

// Receive dequeues the next message, blocking until one arrives. The
// receive-side kernel cost is charged to t.
func (t *Thread) Receive(p *Port) []uint32 {
	t.st.Sync()
	if len(p.msgs) > 0 {
		msg := p.msgs[0]
		p.msgs = p.msgs[1:]
		t.st.Charge(sim.CauseKernel, msgCost(len(msg)))
		return msg
	}
	p.recvQ = append(p.recvQ, t)
	t.st.Block()
	if len(t.inbox) == 0 {
		panic("kernel: receiver woke with empty inbox")
	}
	msg := t.inbox[0]
	t.inbox = t.inbox[1:]
	t.st.Charge(sim.CauseKernel, msgCost(len(msg)))
	return msg
}
