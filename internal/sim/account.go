package sim

// Cost attribution. The paper's evaluation (§6–§8) decomposes execution
// time into local references, remote references, block transfers,
// fault-handler overhead, and shootdown cost; §9 credits exactly this
// kind of "instrumentation for performance monitoring, analysis, and
// visualization" with finding the frozen-pivot-page anomaly. The engine
// therefore tags every nanosecond of virtual time a thread bound to a
// node is charged with a Cause, accumulated per node, so higher layers
// can report an exact — not sampled — breakdown of where simulated time
// went.
//
// Attribution is pure bookkeeping: it never advances a clock and never
// yields, so enabling it cannot change dispatch order or any simulation
// result. Conservation holds by construction: Advance banks the charged
// time as CauseUnattributed and Attribute moves it to a specific cause,
// so a node's Account always sums to exactly the virtual time its
// bound threads consumed there. A charge a layer forgot to classify is
// therefore visible as a non-zero CauseUnattributed balance — the
// invariant metrics.CheckConservation enforces.

// Cause classifies why virtual time was charged to a thread. The causes
// mirror the paper's cost decomposition: word-access latencies (§2,
// local vs remote), hardware block transfers (§4.1's T_b term),
// coherent-fault-handler overhead (§3.3/§4), shootdown and interrupt
// cost (§3.1/§4), and queueing for busy memory modules or a contended
// Cpage handler lock (§5.1's pivot-page contention).
type Cause uint8

// Attribution causes.
const (
	// CauseUnattributed is charged time no layer has classified yet.
	// Advance banks here; Attribute moves time out. A non-zero final
	// balance means some code path charged time without attributing it.
	CauseUnattributed Cause = iota

	// CauseCompute is register-level computation between memory
	// references (kernel.Thread.Compute).
	CauseCompute

	// CauseLocalAccess is word-access latency to the processor's own
	// memory module (the paper's T_l, ~320 ns).
	CauseLocalAccess

	// CauseRemoteAccess is word-access latency through the switch to a
	// remote module (the paper's T_r, ~5 µs) — the cost the coherent
	// memory system exists to avoid.
	CauseRemoteAccess

	// CauseBlockTransfer is time inside hardware page copies (the
	// paper's T_b, ~1.1 ms per 4 KB page), including queueing for the
	// source and destination modules.
	CauseBlockTransfer

	// CauseFault is coherent-fault-handler overhead (§3.3): handler
	// entry, Cmap/IPT lookups, frame allocation, map installs, ATC
	// reloads — everything in a fault not otherwise classified.
	CauseFault

	// CauseShootdown is NUMA shootdown cost (§3.1): posting Cmap
	// messages, synchronizing with interrupted targets, incremental
	// interrupt dispatch, frame reclamation, and the deferred cost of
	// fielding an interrupt on a target processor.
	CauseShootdown

	// CauseQueue is time spent waiting for a busy resource: a memory
	// module serving another request, or the per-Cpage fault-handler
	// lock (the paper's per-page contention measure).
	CauseQueue

	// CauseSync is synchronization wait: spin-wait backoff, blocked
	// time (Block/Unblock), timed sleeps, and daemon idling.
	CauseSync

	// CauseKernel is non-fault kernel service time: port sends and
	// receives, thread migration overhead, and Cmap message application
	// on address-space activation.
	CauseKernel

	// CauseRetry is injected transient memory-module delay: a busy
	// module forcing the requester to retry a word access, or a stalled
	// hardware block transfer. Only fault-injection harnesses charge it;
	// in a clean run the balance is zero.
	CauseRetry

	// CauseSlowAck is injected shootdown-acknowledgement delay: a target
	// processor that is slow to acknowledge an interprocessor interrupt,
	// stretching the initiator's synchronization wait. Only
	// fault-injection harnesses charge it.
	CauseSlowAck

	// CausePmapWalk is page-table walk time: the memory references a
	// processor's translation hardware makes against the node holding
	// the Pmap after an ATC miss. Only charged when page-table
	// placement modeling is enabled (core.PTConfig); the paper's
	// baseline treats walks as free, so the balance is zero there.
	CausePmapWalk

	// CausePTReplicate is page-table replica maintenance: the
	// write-through updates that keep per-node page-table replicas
	// coherent when a mapping is installed (the Mitosis-style variant;
	// see core.PTReplicate).
	CausePTReplicate

	// CauseBatchFlush is deferred TLB-shootdown flush time: applying
	// invalidations that a batching variant coalesced per target
	// instead of broadcasting eagerly (the numaPTE-style variant; see
	// core.PTConfig.BatchShootdown).
	CauseBatchFlush

	// NumCauses is the number of attribution causes (array sizing).
	NumCauses
)

// String returns the cause's stable snake_case name, used as the JSON
// field suffix in the metrics schemas.
func (c Cause) String() string {
	switch c {
	case CauseUnattributed:
		return "unattributed"
	case CauseCompute:
		return "compute"
	case CauseLocalAccess:
		return "local_access"
	case CauseRemoteAccess:
		return "remote_access"
	case CauseBlockTransfer:
		return "block_transfer"
	case CauseFault:
		return "fault"
	case CauseShootdown:
		return "shootdown"
	case CauseQueue:
		return "queue"
	case CauseSync:
		return "sync"
	case CauseKernel:
		return "kernel"
	case CauseRetry:
		return "retry"
	case CauseSlowAck:
		return "slow_ack"
	case CausePmapWalk:
		return "pmap_walk"
	case CausePTReplicate:
		return "pt_replicate"
	case CauseBatchFlush:
		return "batch_flush"
	}
	return "cause(?)"
}

// Account is virtual time accumulated by cause. Index with a Cause.
// The zero value is an empty account.
type Account [NumCauses]Time

// Total returns the account's total charged time across all causes —
// by construction, exactly the virtual time the owning node's threads
// have consumed there.
func (a *Account) Total() Time {
	var t Time
	for _, d := range a {
		t += d
	}
	return t
}

// Add merges b into a.
func (a *Account) Add(b *Account) {
	for c, d := range b {
		a[c] += d
	}
}

// RemoteFraction returns the share of total time spent on remote word
// accesses — the cost coherent memory exists to avoid (§2). Zero when
// the account is empty.
func (a *Account) RemoteFraction() float64 { return a.share(a[CauseRemoteAccess]) }

// FaultFraction returns the share of total time spent in coherency
// overhead: fault handling plus shootdown (§3.3, §4). Zero when the
// account is empty.
func (a *Account) FaultFraction() float64 { return a.share(a[CauseFault] + a[CauseShootdown]) }

func (a *Account) share(d Time) float64 {
	total := a.Total()
	if total == 0 {
		return 0
	}
	return float64(d) / float64(total)
}

// attribute moves d of already-charged time from CauseUnattributed to
// cause c in the account of the node the thread is bound to. Called
// with c == CauseUnattributed, or on an unbound thread, it is a no-op.
func (t *Thread) attribute(c Cause, d Time) {
	if c == CauseUnattributed || d == 0 || t.node < 0 {
		return
	}
	na := &t.engine.nodeAcct[t.node]
	na[CauseUnattributed] -= d
	na[c] += d
	if t.engine.telemetry {
		t.engine.recordCharge(t.node, c, t.clock, d)
	}
}

// bank records d of freshly charged (or block-jumped) time under cause
// c without touching the unattributed balance. Advance banks under
// CauseUnattributed; Unblock banks its clock jump under CauseSync.
func (t *Thread) bank(c Cause, d Time) {
	if d == 0 || t.node < 0 {
		return
	}
	t.engine.nodeAcct[t.node][c] += d
	if t.engine.telemetry && c != CauseUnattributed {
		// Unattributed banks are Advance's fresh time, later moved by
		// attribute; recording them here would double-count against
		// the classified charges the histograms mirror.
		t.engine.recordCharge(t.node, c, t.clock, d)
	}
}

// Attribute classifies d of time this thread has already been charged
// (via Advance) as cause c. Call it before or after the Advance it
// explains — attribution is order-independent bookkeeping — but
// conventionally before, so a charge interrupted by engine shutdown is
// still classified. Over-attribution drives the CauseUnattributed
// balance negative, which the conservation invariant flags.
func (t *Thread) Attribute(c Cause, d Time) { t.attribute(c, d) }

// AttributeAccount attributes every cause of a in turn, as one
// Attribute call per nonzero cause: the operations that buffer their
// costs by cause (one coherent fault, one defrost sweep) classify their
// single Advance with it, and the charge histograms see one sample per
// cause per operation.
func (t *Thread) AttributeAccount(a *Account) {
	for c, d := range a {
		t.attribute(Cause(c), d)
	}
}

// Charge is Advance(d) with the time attributed to cause c: the single
// scheduling step is identical to a bare Advance(d), so dispatch order
// — and every simulation result — is unchanged by the attribution.
func (t *Thread) Charge(c Cause, d Time) {
	t.attribute(c, d)
	t.Advance(d)
}

// BindNode directs this thread's future charges into the engine's
// per-node account for node n. Charges made before the call stay where
// they were recorded, so a migrating thread's history remains with the
// node that actually spent the time. Binding to a negative node
// detaches the thread from accounting.
func (t *Thread) BindNode(n int) {
	if n >= len(t.engine.nodeAcct) {
		if n < cap(t.engine.nodeAcct) {
			// Within retained capacity (an engine reused via Reset, which
			// zeroed the full capacity): extend without allocating.
			t.engine.nodeAcct = t.engine.nodeAcct[:n+1]
		} else {
			grown := make([]Account, n+1)
			copy(grown, t.engine.nodeAcct)
			t.engine.nodeAcct = grown
		}
	}
	if t.engine.histsOn {
		// Histogram storage mirrors nodeAcct's growth so the hot-path
		// record never has to (binding is the cold setup path).
		t.engine.growChargeHists(n + 1)
	}
	t.node = n
}

// NodeAccounts returns a snapshot of per-node attributed time, indexed
// by node. Only charges made while a thread was bound (BindNode) to a
// node appear; the kernel binds every thread to its processor, so for
// kernel workloads this is the exact per-processor cost breakdown.
func (e *Engine) NodeAccounts() []Account {
	out := make([]Account, len(e.nodeAcct))
	copy(out, e.nodeAcct)
	return out
}

// TotalAccount returns the sum of all per-node accounts — the
// machine-wide cost breakdown.
func (e *Engine) TotalAccount() Account {
	var a Account
	for i := range e.nodeAcct {
		a.Add(&e.nodeAcct[i])
	}
	return a
}
