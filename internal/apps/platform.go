// Package apps implements the paper's application programs — Gaussian
// elimination (§5.1), tree merge sort (§5.2), and a recurrent
// backpropagation network simulator (§5.3) — plus the §4.2 frozen-page
// anecdote, the §4.1 co-location benchmark and the TopoMix, matmul and
// SOR workloads.
//
// Every program runs on the platform its caller passes in, booted here
// (NewPlatinumPlatform, NewUMAPlatform) or taken from the pool
// (AcquirePlatform); kernel settings such as the policy or the defrost
// period are the caller's kernel.Config, not the program's. The
// applications perform real computation on simulated memory: tests
// verify their answers, so coherency bugs in the memory system surface
// as wrong results, not just wrong timings. Where the paper runs the
// same program on two machines (merge sort on the Butterfly and on a
// Sequent Symmetry), the program is written against the Env/Platform
// interfaces and runs unchanged on both.
package apps

import (
	"fmt"

	"platinum/internal/core"
	"platinum/internal/kernel"
	"platinum/internal/sim"
	"platinum/internal/uma"
)

// Env is the machine-neutral view of a thread: word-granular access to
// shared memory plus time accounting. kernel.Thread (PLATINUM) and
// uma.Thread (Sequent-class UMA) both satisfy it.
type Env interface {
	Compute(d sim.Time)
	Read(va int64) uint32
	Write(va int64, v uint32)
	ReadRange(va int64, dst []uint32)
	WriteRange(va int64, src []uint32)
	AtomicAdd(va int64, delta uint32) uint32
	WaitAtLeast(va int64, target uint32) uint32
}

// Platform abstracts the machine a program runs on: allocation, thread
// creation, and the simulation clock.
type Platform interface {
	// Procs returns the number of processors available.
	Procs() int
	// Alloc reserves nwords words of shared memory (page-aligned on
	// machines with pages) and returns the base virtual address.
	Alloc(label string, nwords int) (int64, error)
	// Spawn starts a thread on processor proc.
	Spawn(name string, proc int, body func(Env))
	// Run drains the simulation and returns the first error.
	Run() error
	// Elapsed returns the virtual time consumed so far.
	Elapsed() sim.Time
	// Accounts returns the per-processor cost breakdown accumulated so
	// far (virtual time by cause; see sim.Account).
	Accounts() []sim.Account
}

// PlatinumPlatform runs programs on a booted PLATINUM kernel, all
// threads sharing one address space.
type PlatinumPlatform struct {
	K   *kernel.Kernel
	Sp  *kernel.Space
	cfg kernel.Config // what K booted with, which the pool files it under
}

// NewPlatinumPlatform boots a kernel with cfg and wraps it.
func NewPlatinumPlatform(cfg kernel.Config) (*PlatinumPlatform, error) {
	k, err := kernel.Boot(cfg)
	if err != nil {
		return nil, err
	}
	return &PlatinumPlatform{K: k, Sp: k.NewSpace(), cfg: cfg}, nil
}

// Procs implements Platform.
func (p *PlatinumPlatform) Procs() int { return p.K.Nodes() }

// Alloc implements Platform.
func (p *PlatinumPlatform) Alloc(label string, nwords int) (int64, error) {
	return p.Sp.AllocWords(label, nwords, core.Read|core.Write)
}

// Spawn implements Platform.
func (p *PlatinumPlatform) Spawn(name string, proc int, body func(Env)) {
	p.K.Spawn(name, proc, p.Sp, func(t *kernel.Thread) { body(t) })
}

// Run implements Platform.
func (p *PlatinumPlatform) Run() error { return p.K.Run() }

// Elapsed implements Platform.
func (p *PlatinumPlatform) Elapsed() sim.Time { return p.K.Now() }

// Accounts implements Platform.
func (p *PlatinumPlatform) Accounts() []sim.Account { return p.K.NodeAccounts() }

// UMAPlatform runs programs on the Sequent-class UMA machine.
type UMAPlatform struct {
	M *uma.Machine
}

// NewUMAPlatform builds the UMA machine and wraps it.
func NewUMAPlatform() *UMAPlatform { return &UMAPlatform{M: uma.New(sim.NewEngine())} }

// Procs implements Platform.
func (p *UMAPlatform) Procs() int { return uma.Procs }

// Alloc implements Platform.
func (p *UMAPlatform) Alloc(_ string, nwords int) (int64, error) {
	return p.M.Alloc(nwords), nil
}

// Spawn implements Platform.
func (p *UMAPlatform) Spawn(name string, proc int, body func(Env)) {
	p.M.Spawn(name, proc, func(t *uma.Thread) { body(t) })
}

// Run implements Platform.
func (p *UMAPlatform) Run() error { return p.M.Run() }

// Elapsed implements Platform.
func (p *UMAPlatform) Elapsed() sim.Time { return p.M.Engine().Now() }

// Accounts implements Platform.
func (p *UMAPlatform) Accounts() []sim.Account { return p.M.Engine().NodeAccounts() }

// Placer is implemented by platforms that support static page
// placement (PLATINUM; the UMA machine has no page placement).
type Placer interface {
	PlaceAt(va int64, module int) error
}

// PlaceAt implements Placer by placing the page holding va.
func (p *PlatinumPlatform) PlaceAt(va int64, module int) error {
	return p.Sp.PlaceAt(va, module)
}

// Compile-time interface checks.
var (
	_ Env      = (*kernel.Thread)(nil)
	_ Env      = (*uma.Thread)(nil)
	_ Platform = (*PlatinumPlatform)(nil)
	_ Platform = (*UMAPlatform)(nil)
)

// checkProcs validates a requested processor count against a platform.
func checkProcs(pl Platform, procs int) error {
	if procs < 1 || procs > pl.Procs() {
		return fmt.Errorf("apps: %d processors requested, machine has %d", procs, pl.Procs())
	}
	return nil
}
