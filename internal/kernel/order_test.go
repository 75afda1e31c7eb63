package kernel

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"platinum/internal/core"
	"platinum/internal/sim"
	"platinum/internal/span"
)

var update = flag.Bool("update", false, "rewrite golden files")

// orderWindow is when the interferer acts: about 100 µs into the
// actor's page-long read, which starts after a 230 µs first-touch
// fault (runOrderCase checks the overlap).
const orderWindow = 330 * sim.Microsecond

// orderCase is one shared action taken right after a memory access.
// The actor (proc 0) faults a local page in, reads all of it (~328 µs
// of latency) and then calls act; the interferer (proc 1) computes
// until orderWindow, inside that read, and then calls interfere, a
// shared action of its own that the actor's must follow.
type orderCase struct {
	name      string
	act       func(th *Thread, w *orderWorld)
	interfere func(th *Thread, w *orderWorld)
}

// orderWorld is the state both threads of an orderCase reach.
type orderWorld struct {
	k         *Kernel
	sp        *Space
	buf, zone int64 // the actor's page; a second zone
	port      *Port
	threads   []*Thread // actor, interferer, then in-thread spawns
}

var orderCases = []orderCase{
	{
		// The interferer's exit is its shared action; the actor joins
		// it.
		name: "join",
		act:  func(th *Thread, w *orderWorld) { th.Join(w.threads[1]) },
	},
	{
		name: "receive",
		act: func(th *Thread, w *orderWorld) {
			th.Write(w.zone, th.Receive(w.port)[0])
		},
		interfere: func(th *Thread, w *orderWorld) { th.Send(w.port, []uint32{42}) },
	},
	{
		// The interferer's write shoots down proc 0's translation: an
		// interrupt while the actor is still resident there.
		name: "migrate",
		act: func(th *Thread, w *orderWorld) {
			th.Migrate(2)
			th.Read(w.zone)
		},
		interfere: func(th *Thread, w *orderWorld) { th.Write(w.buf+7, 7) },
	},
	{
		// The interferer maps the zone before the actor unmaps it.
		name: "unmap",
		act: func(th *Thread, w *orderWorld) {
			if err := w.sp.Unmap(th, w.zone); err != nil {
				panic(err)
			}
		},
		interfere: func(th *Thread, w *orderWorld) { th.Read(w.zone) },
	},
	{
		// The child starts at the actor's clock after the read.
		name: "spawn",
		act: func(_ *Thread, w *orderWorld) {
			w.threads = append(w.threads, w.k.Spawn("child", 2, w.sp, func(c *Thread) { c.Read(w.zone + 1) }))
		},
		interfere: func(th *Thread, w *orderWorld) { th.Write(w.zone+1, 9) },
	},
	{
		// The actor exits right after its read; the interferer's write
		// must still find it resident on proc 0.
		name:      "exit",
		act:       func(*Thread, *orderWorld) {},
		interfere: func(th *Thread, w *orderWorld) { th.Write(w.buf+7, 7) },
	},
}

// runOrderCase runs one case and returns its transcript: the retained
// spans, the protocol event trace, every kernel thread's final clock
// and the elapsed time.
func runOrderCase(t *testing.T, c orderCase) []byte {
	t.Helper()
	k := boot(t, nil)
	k.EnableSpans(0)
	k.EnableTrace(1 << 12)
	w := &orderWorld{k: k, sp: k.NewSpace()}
	var err error
	if w.buf, err = w.sp.AllocWords("buf", k.PageWords(), core.Read|core.Write); err != nil {
		t.Fatal(err)
	}
	if w.zone, err = w.sp.AllocWords("zone", 2, core.Read|core.Write); err != nil {
		t.Fatal(err)
	}
	if w.port, err = k.NewPort("order"); err != nil {
		t.Fatal(err)
	}
	var readStart, readEnd, acted sim.Time
	actor := k.Spawn("actor", 0, w.sp, func(th *Thread) {
		th.Read(w.buf) // fault the page in
		readStart = th.Now()
		th.ReadRange(w.buf, make([]uint32, k.PageWords()))
		readEnd = th.Now()
		c.act(th, w)
	})
	interferer := k.Spawn("interferer", 1, w.sp, func(th *Thread) {
		th.Compute(orderWindow)
		acted = th.Now()
		if c.interfere != nil {
			c.interfere(th, w)
		}
	})
	w.threads = append(w.threads, actor, interferer)
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if acted <= readStart || acted >= readEnd {
		t.Fatalf("interferer acts at %v, outside the actor's read [%v, %v)", acted, readStart, readEnd)
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "== %s: read [%v, %v), interferer acts at %v\n", c.name, readStart, readEnd, acted)
	if _, err := span.Format(&b, k.Spans().Spans()); err != nil {
		t.Fatal(err)
	}
	events, dropped := k.Trace()
	if dropped != 0 {
		t.Fatalf("trace dropped %d events", dropped)
	}
	for _, ev := range events {
		fmt.Fprintf(&b, "event %v %v proc=%d cpage=%d\n", ev.Time, ev.Kind, ev.Proc, ev.Cpage)
	}
	for _, th := range w.threads {
		fmt.Fprintf(&b, "clock %s %v\n", th.Sim().Name(), th.Now())
	}
	fmt.Fprintf(&b, "elapsed %v\n", k.Now())
	return b.Bytes()
}

// TestSharedActionOrder pins the order of shared actions taken right
// after a memory access — Join, Receive, Migrate, Space.Unmap, an
// in-thread Spawn and thread exit — against another thread's shared
// action inside that access's latency. The golden holds the span dump,
// the event trace, every thread's final clock and the elapsed time;
// any change to when a thread yields that reorders shared actions
// moves it. Regenerate with go test ./internal/kernel -run
// TestSharedActionOrder -update.
func TestSharedActionOrder(t *testing.T) {
	var all bytes.Buffer
	for _, c := range orderCases {
		all.Write(runOrderCase(t, c))
	}
	path := filepath.Join("testdata", "order.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, all.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(all.Bytes(), want) {
		t.Errorf("shared-action order moved; diff against %s:\n%s", path, all.String())
	}
}
