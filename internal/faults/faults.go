// Package faults is the deterministic fault-injection layer for the
// simulated substrates: it wraps inputs (local files, HDFS files,
// in-memory buffers), storage devices (disks and network links alike),
// spill-run backings and shuffle wires so that a Plan — reproducible
// from a single seed — injects read/write errors, short reads, torn
// writes and latency spikes into an otherwise perfect simulation.
//
// Determinism contract: every wrapped object is a "site" named by a
// stable string (the file name, "spill", "dn3", ...). Each site owns a
// random stream seeded from (Plan.Seed XOR fnv64(site name)) and
// per-operation counters, so the fault schedule at a site is a pure
// function of the plan and the sequence of operations the site
// actually serves — independent of goroutine interleaving across
// sites. The SupMR pipeline keeps each site's operation sequence
// deterministic however many IO lanes it runs: every ingest read is
// *issued* — and therefore has its fault decision drawn — from the
// single ingest thread via the two-phase IssueReadAt split (only the
// data transfer runs on a lane), and the spill layer keeps at most one
// write in flight. For a fixed plan the whole job's fault sequence
// (and therefore its outcome on a virtual clock) is reproducible.
package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sync"
	"time"

	"supmr/internal/storage"
)

// Plan describes one deterministic fault schedule. Every trigger comes
// in an every-Nth flavor (exact, counter-based) and a probability
// flavor (drawn from the site's seeded stream); both may be active.
// The zero Plan injects nothing.
type Plan struct {
	// Seed roots every site's random stream. Two runs with the same
	// plan (and the same operation sequence) see the same faults.
	Seed int64

	ReadErrEvery  int64   // inject a read error on every Nth read at a site (0 = off)
	ReadErrProb   float64 // per-read error probability in [0,1]
	WriteErrEvery int64   // inject a write error on every Nth write at a site
	WriteErrProb  float64 // per-write error probability

	ShortReadEvery int64   // truncate every Nth read to a prefix
	ShortReadProb  float64 // per-read truncation probability

	Latency      time.Duration // extra service delay per latency spike
	LatencyEvery int64         // spike every Nth operation
	LatencyProb  float64       // per-operation spike probability

	// Permanent marks every injected error non-retryable. Otherwise
	// errors are transient unless PermanentEvery promotes them.
	Permanent bool
	// PermanentEvery promotes every Nth injected error (globally, in
	// injection order) to permanent.
	PermanentEvery int64

	// MaxFaults caps the total number of injected errors across all
	// sites (0 = unlimited). Degraded-service events (short reads,
	// latency spikes) do not count against the cap.
	MaxFaults int64
}

// Active reports whether the plan can inject anything at all.
func (p Plan) Active() bool {
	return p.ReadErrEvery > 0 || p.ReadErrProb > 0 ||
		p.WriteErrEvery > 0 || p.WriteErrProb > 0 ||
		p.ShortReadEvery > 0 || p.ShortReadProb > 0 ||
		(p.Latency > 0 && (p.LatencyEvery > 0 || p.LatencyProb > 0))
}

// Validate rejects out-of-range probabilities and negative settings.
func (p Plan) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"read-err", p.ReadErrProb}, {"write-err", p.WriteErrProb},
		{"short-read", p.ShortReadProb}, {"latency-prob", p.LatencyProb},
	} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("faults: %s probability %v outside [0,1]", pr.name, pr.v)
		}
	}
	if p.Latency < 0 {
		return fmt.Errorf("faults: negative latency spike %v", p.Latency)
	}
	for _, ev := range []struct {
		name string
		v    int64
	}{
		{"read-err-every", p.ReadErrEvery}, {"write-err-every", p.WriteErrEvery},
		{"short-read-every", p.ShortReadEvery}, {"latency-every", p.LatencyEvery},
		{"permanent-every", p.PermanentEvery}, {"max-faults", p.MaxFaults},
	} {
		if ev.v < 0 {
			return fmt.Errorf("faults: negative %s %d", ev.name, ev.v)
		}
	}
	return nil
}

// ErrInjected is the sentinel every injected fault wraps; match with
// errors.Is to tell injected failures from genuine ones.
var ErrInjected = errors.New("injected fault")

// Fault is one injected error: which site, which operation, the
// operation's sequence number at the site, and whether the failure is
// permanent (non-retryable).
type Fault struct {
	Site      string
	Op        string // "read" or "write"
	Seq       int64  // 1-based operation number at the site
	Permanent bool
}

// Error renders the fault.
func (f *Fault) Error() string {
	kind := "transient"
	if f.Permanent {
		kind = "permanent"
	}
	return fmt.Sprintf("%s %s fault at %s (op %d): %s", kind, f.Op, f.Site, f.Seq, ErrInjected)
}

// Unwrap exposes the sentinel for errors.Is(err, ErrInjected).
func (f *Fault) Unwrap() error { return ErrInjected }

// IsTransient reports whether err is (or wraps) a retryable injected
// fault. Permanent faults and genuine errors are not transient.
func IsTransient(err error) bool {
	var f *Fault
	return errors.As(err, &f) && !f.Permanent
}

const (
	opRead  = "read"
	opWrite = "write"
)

// Injector applies one Plan. Wrap each substrate object once
// (WrapInput, WrapDevice, WrapBlockFile, Wire) and share the
// injector across a job so MaxFaults and the counters are global.
// Latency spikes sleep on the injector's clock — pass the job clock so
// they land on the same (possibly virtual) timeline as device waits.
type Injector struct {
	plan  Plan
	clock storage.Clock
	ctr   *Counters

	mu       sync.Mutex
	sites    map[string]*site
	injected int64 // error faults injected so far, for MaxFaults/PermanentEvery
}

type site struct {
	rng    *rand.Rand
	reads  int64
	writes int64
}

// New builds an injector for plan. clock may be nil when the plan has
// no latency spikes.
func New(plan Plan, clock storage.Clock) *Injector {
	if clock == nil {
		clock = storage.NewFakeClock()
	}
	return &Injector{plan: plan, clock: clock, ctr: &Counters{}, sites: make(map[string]*site)}
}

// Plan returns the injector's plan.
func (in *Injector) Plan() Plan { return in.plan }

// Counters returns the shared fault/retry counters.
func (in *Injector) Counters() *Counters { return in.ctr }

// siteFor returns (creating on first use) the per-site state. Seeding
// from the site name keeps schedules independent of wrap order.
func (in *Injector) siteFor(name string) *site {
	s := in.sites[name]
	if s == nil {
		h := fnv.New64a()
		h.Write([]byte(name))
		s = &site{rng: rand.New(rand.NewSource(in.plan.Seed ^ int64(h.Sum64())))}
		in.sites[name] = s
	}
	return s
}

// action is the injector's verdict for one operation.
type action struct {
	spike time.Duration
	short bool
	fault *Fault
}

// decide advances the site's operation counter and rolls the plan's
// triggers. canFail gates error injection: infallible paths (plain
// Device.Reserve) still get latency spikes but never an error, so a
// fault is not "spent" where it cannot be delivered.
func (in *Injector) decide(siteName, op string, canFail bool) action {
	in.mu.Lock()
	defer in.mu.Unlock()
	s := in.siteFor(siteName)
	var n int64
	if op == opWrite {
		s.writes++
		n = s.writes
	} else {
		s.reads++
		n = s.reads
	}
	var a action
	p := in.plan
	if p.Latency > 0 && hit(s.rng, n, p.LatencyEvery, p.LatencyProb) {
		a.spike = p.Latency
		in.ctr.latencySpikes.Add(1)
	}
	if canFail && op == opRead && hit(s.rng, n, p.ShortReadEvery, p.ShortReadProb) {
		a.short = true
		in.ctr.shortReads.Add(1)
	}
	every, prob := p.ReadErrEvery, p.ReadErrProb
	if op == opWrite {
		every, prob = p.WriteErrEvery, p.WriteErrProb
	}
	if canFail && hit(s.rng, n, every, prob) && (p.MaxFaults <= 0 || in.injected < p.MaxFaults) {
		in.injected++
		perm := p.Permanent || (p.PermanentEvery > 0 && in.injected%p.PermanentEvery == 0)
		a.fault = &Fault{Site: siteName, Op: op, Seq: n, Permanent: perm}
		in.ctr.injected.Add(1)
		if perm {
			in.ctr.permanent.Add(1)
		} else {
			in.ctr.transient.Add(1)
		}
	}
	return a
}

// hit rolls one trigger: exact on every-Nth operations, plus an
// independent draw from the site's stream when a probability is set.
func hit(rng *rand.Rand, n, every int64, prob float64) bool {
	if every > 0 && n%every == 0 {
		return true
	}
	return prob > 0 && rng.Float64() < prob
}

// sleep charges a latency spike on the injector clock.
func (in *Injector) sleep(d time.Duration) {
	if d > 0 {
		in.clock.SleepUntil(in.clock.Now() + d)
	}
}

// Input mirrors chunk.Input structurally (name + size + positioned
// reads) so this package can wrap ingest sources without importing the
// chunk package.
type Input interface {
	Name() string
	Size() int64
	io.ReaderAt
}

// WrapInput wraps an ingest source; the site is the input's name.
// Injected read errors surface from ReadAt; short reads deliver a
// prefix with a nil error (the io.ReaderAt contract callers must
// already loop over); latency spikes sleep on the injector clock.
func (in *Injector) WrapInput(f Input) Input {
	return &faultInput{inj: in, inner: f}
}

type faultInput struct {
	inj   *Injector
	inner Input
}

func (f *faultInput) Name() string { return f.inner.Name() }
func (f *faultInput) Size() int64  { return f.inner.Size() }

func (f *faultInput) ReadAt(p []byte, off int64) (int, error) {
	a := f.inj.decide(f.inner.Name(), opRead, true)
	f.inj.sleep(a.spike)
	if a.fault != nil {
		return 0, a.fault
	}
	if a.short && len(p) > 1 {
		p = p[:len(p)/2]
	}
	return f.inner.ReadAt(p, off)
}

// issueReader mirrors chunk.IssueReader structurally, the way Input
// mirrors chunk.Input: the two-phase read seam of the multi-lane
// ingest path.
type issueReader interface {
	IssueReadAt(p []byte, off int64) (func() (int, error), error)
}

// IssueReadAt draws the fault decision at issue time — on the calling
// (single ingest) goroutine, in call order — which is exactly what
// keeps the site's fault schedule deterministic when the returned
// waits execute concurrently across IO lanes. An injected error costs
// nothing on the underlying device, a short read issues a halved
// request, and a latency spike is slept here at issue, all mirroring
// ReadAt.
func (f *faultInput) IssueReadAt(p []byte, off int64) (func() (int, error), error) {
	a := f.inj.decide(f.inner.Name(), opRead, true)
	f.inj.sleep(a.spike)
	if a.fault != nil {
		return nil, a.fault
	}
	if a.short && len(p) > 1 {
		p = p[:len(p)/2]
	}
	if ir, ok := f.inner.(issueReader); ok {
		return ir.IssueReadAt(p, off)
	}
	// Inner without an issue/wait split: the decision above already
	// happened serially, so running the plain read in the wait is safe.
	q := p
	return func() (int, error) { return f.inner.ReadAt(q, off) }, nil
}

// WrapDevice wraps a storage device under the given site name. The
// wrapped device is a storage.FallibleDevice: reads routed through
// storage.TryReserve can fail with injected faults, while the plain
// (infallible) Reserve/ReserveWrite paths receive latency spikes only.
func (in *Injector) WrapDevice(siteName string, dev storage.Device) storage.Device {
	return &faultDevice{inj: in, site: siteName, inner: dev}
}

type faultDevice struct {
	inj   *Injector
	site  string
	inner storage.Device
}

func (d *faultDevice) Clock() storage.Clock       { return d.inner.Clock() }
func (d *faultDevice) Bandwidth() float64         { return d.inner.Bandwidth() }
func (d *faultDevice) Stats() storage.DeviceStats { return d.inner.Stats() }

func (d *faultDevice) Reserve(off, n int64) time.Duration {
	a := d.inj.decide(d.site, opRead, false)
	d.inj.sleep(a.spike)
	return d.inner.Reserve(off, n)
}

func (d *faultDevice) TryReserve(off, n int64) (time.Duration, error) {
	a := d.inj.decide(d.site, opRead, true)
	d.inj.sleep(a.spike)
	if a.fault != nil {
		return 0, a.fault
	}
	return storage.TryReserve(d.inner, off, n)
}

// Issue forwards the two-phase booking of a device whose finish is not
// known at booking (a network link), so wrapping keeps its timing exact.
// A degraded wire stalls, it does not fail: one latency-only decision
// per transfer, slept before the inner device books it.
func (d *faultDevice) Issue(off, n int64) (wait func()) {
	a := d.inj.decide(d.site, opRead, false)
	d.inj.sleep(a.spike)
	return storage.Issue(d.inner, off, n)
}

func (d *faultDevice) ReserveWrite(off, n int64) time.Duration {
	a := d.inj.decide(d.site, opWrite, false)
	d.inj.sleep(a.spike)
	return storage.ReserveWrite(d.inner, off, n)
}

// BlockFile mirrors spill.RunData structurally: the random-access
// payload of one spill run.
type BlockFile interface {
	WriteAt(p []byte, off int64) (int, error)
	ReadAt(p []byte, off int64) (int, error)
	Close() error
}

// WrapBlockFile wraps one spill run's backing. An injected write error
// is a torn write: a prefix of the payload lands before the failure,
// so a retrying caller must discard the whole attempt (the spill layer
// abandons the run and rewrites from scratch). Read errors exercise
// the merge phase's run read-back path.
func (in *Injector) WrapBlockFile(siteName string, f BlockFile) BlockFile {
	return &faultBlockFile{inj: in, site: siteName, inner: f}
}

type faultBlockFile struct {
	inj   *Injector
	site  string
	inner BlockFile
}

func (f *faultBlockFile) WriteAt(p []byte, off int64) (int, error) {
	a := f.inj.decide(f.site, opWrite, true)
	f.inj.sleep(a.spike)
	if a.fault != nil {
		n, _ := f.inner.WriteAt(p[:len(p)/2], off)
		return n, a.fault
	}
	return f.inner.WriteAt(p, off)
}

func (f *faultBlockFile) ReadAt(p []byte, off int64) (int, error) {
	a := f.inj.decide(f.site, opRead, true)
	f.inj.sleep(a.spike)
	if a.fault != nil {
		return 0, a.fault
	}
	if a.short && len(p) > 1 {
		p = p[:len(p)/2]
	}
	return f.inner.ReadAt(p, off)
}

func (f *faultBlockFile) Close() error { return f.inner.Close() }

// Wire is the fault seam for one directed shuffle link (one ordered
// node pair). Unlike a wrapped link it has an error path: a shuffle send
// is a framed message, and the plan's write triggers model the message
// being torn mid-flight — a prefix of the frame reaches the receiver
// and the sender sees the fault, mirroring WrapBlockFile's torn-write
// semantics. Latency spikes stall the send before bytes move.
type Wire struct {
	inj  *Injector
	site string
}

// Wire returns the send seam for one directed link site.
func (in *Injector) Wire(siteName string) *Wire {
	return &Wire{inj: in, site: siteName}
}

// Send decides the fate of one n-byte framed send and charges any
// latency spike on the injector clock. It returns how many bytes
// actually leave the sender — n on success, a torn prefix on a fault —
// and the injected fault, if any. A nil Wire passes everything through
// untouched, so fault-free paths need no branching.
func (w *Wire) Send(n int) (int, error) {
	if w == nil {
		return n, nil
	}
	a := w.inj.decide(w.site, opWrite, true)
	w.inj.sleep(a.spike)
	if a.fault != nil {
		return n / 2, a.fault
	}
	return n, nil
}
