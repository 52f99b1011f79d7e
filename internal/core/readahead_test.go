package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"supmr/internal/chunk"
	"supmr/internal/exec"
	"supmr/internal/kv"
	"supmr/internal/mapreduce"
)

// recInput is an in-memory input that records the (offset, length) of
// every read it is asked for, issued or plain, in call order. Its waits
// can sleep a random delay, fail or panic, and it counts the waits it
// hands out against the waits that have returned, so a test can tell
// whether any read is still running on an IO lane.
type recInput struct {
	data  []byte
	delay time.Duration // waits sleep up to this long (0: no sleep)

	failIssue  int // fail the k-th issue, 1-based (0: never)
	panicIssue int // the k-th issue panics
	failWait   int // the k-th wait returns an error
	panicWait  int // the k-th wait panics

	mu     sync.Mutex
	rng    *rand.Rand
	reads  [][2]int64
	issues int
	waits  int

	handed, returned atomic.Int64
}

func (r *recInput) Name() string { return "rec" }
func (r *recInput) Size() int64  { return int64(len(r.data)) }

func (r *recInput) ReadAt(p []byte, off int64) (int, error) {
	w, err := r.IssueReadAt(p, off)
	if err != nil {
		return 0, err
	}
	return w()
}

func (r *recInput) IssueReadAt(p []byte, off int64) (func() (int, error), error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reads = append(r.reads, [2]int64{off, int64(len(p))})
	r.issues++
	switch r.issues {
	case r.failIssue:
		return nil, errors.New("issue refused")
	case r.panicIssue:
		panic("issue exploded")
	}
	if off >= int64(len(r.data)) {
		return nil, io.EOF
	}
	r.waits++
	k := r.waits
	var sleep time.Duration
	if r.delay > 0 {
		if r.rng == nil {
			r.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
		}
		sleep = time.Duration(r.rng.Int63n(int64(r.delay)))
	}
	r.handed.Add(1)
	return func() (int, error) {
		defer r.returned.Add(1)
		time.Sleep(sleep)
		switch k {
		case r.panicWait:
			panic("lane died mid-read")
		case r.failWait:
			return 0, errors.New("wait failed")
		}
		n := copy(p, r.data[off:])
		if n < len(p) {
			return n, io.EOF
		}
		return n, nil
	}, nil
}

func (r *recInput) schedule() [][2]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([][2]int64(nil), r.reads...)
}

// scheduleText is newline text of short records with one record five
// times longer than the boundary-hunt margin, so some cut has to read
// past every byte already requested.
func scheduleText() []byte {
	var b []byte
	x := uint32(7)
	for len(b) < 96<<10 {
		x = x*1664525 + 1013904223
		n := int(x>>24)%120 + 1
		if len(b) > 40<<10 && len(b) < 41<<10 {
			n = 20 << 10
		}
		for i := 0; i < n; i++ {
			b = append(b, 'a'+byte(i%26))
		}
		b = append(b, '\n')
	}
	return b
}

// recPart is bytes [off, off+n) of a recInput as a file of its own, so
// a multi-file stream's reads land on one recorder.
type recPart struct {
	in     *recInput
	off, n int64
}

func (p recPart) Name() string { return fmt.Sprint("rec@", p.off) }
func (p recPart) Size() int64  { return p.n }
func (p recPart) ReadAt(b []byte, off int64) (int, error) {
	return p.in.ReadAt(b, p.off+off)
}
func (p recPart) IssueReadAt(b []byte, off int64) (func() (int, error), error) {
	return p.in.IssueReadAt(b, p.off+off)
}

// recParts cuts in into three 5 KiB files, a 40 KiB file and 5 KiB
// files for the rest.
func recParts(in *recInput) []chunk.Input {
	var parts []chunk.Input
	for off, size := int64(0), in.Size(); off < size; {
		n := int64(5 << 10)
		if len(parts) == 3 {
			n = 40 << 10
		}
		n = min(n, size-off)
		parts = append(parts, recPart{in: in, off: off, n: n})
		off += n
	}
	return parts
}

// recStream is a stream over a recInput, in one of the shapes the
// pipeline ingests.
type recStream struct {
	name string
	cut  func(in *recInput) (chunk.Stream, error)
}

var (
	// interStream cuts 8 KiB chunks; cdcStream cuts content-defined
	// chunks of 4 to 8 KiB, as a memo run does.
	interStream = recStream{"inter", func(in *recInput) (chunk.Stream, error) {
		return chunk.NewInterFile(in, 8<<10, chunk.NewlineBoundary{})
	}}
	cdcStream = recStream{"cdc", func(in *recInput) (chunk.Stream, error) {
		return chunk.NewContentDefined(in, 4<<10, 4<<10, 8<<10, chunk.NewlineBoundary{})
	}}
	// filesStream reads recParts three files a chunk; hybridStream up
	// to 16 KiB a chunk, splitting the 40 KiB file.
	filesStream = recStream{"files", func(in *recInput) (chunk.Stream, error) {
		return chunk.NewFiles(recParts(in), 3, 0, chunk.NewlineBoundary{})
	}}
	hybridStream = recStream{"hybrid", func(in *recInput) (chunk.Stream, error) {
		return chunk.NewFiles(recParts(in), 0, 16<<10, chunk.NewlineBoundary{})
	}}
)

// runRecorded runs word count over in cut by st and returns the result
// and the read schedule the input saw.
func runRecorded(t *testing.T, st recStream, app kv.App[string, int64], in *recInput, opts Options) (*Result[string, int64], [][2]int64, error) {
	t.Helper()
	s, err := st.cut(in)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Workers == 0 && opts.Pool == nil {
		opts.Workers = 2
	}
	res, err := Run[string, int64](app, s, wcApp{}.NewContainer(8), opts)
	return res, in.schedule(), err
}

// depth1Schedule is the read schedule of interStream at depth 1, as the
// pipeline issued it before reads ran ahead: each chunk's nominal bytes
// plus the 4 KiB boundary-hunt margin past the current cut, the long
// record's four 4 KiB extension reads, and at two lanes every read of 8
// KiB or more split in two.
var depth1Schedule = map[int][][2]int64{
	1: {{0, 12288}, {12288, 8208}, {20496, 8304}, {28800, 8291}, {37091, 8225}, {45316, 4096}, {49412, 4096},
		{53508, 4096}, {57604, 4096}, {61700, 12082}, {73782, 8264}, {82046, 8211}, {90257, 8050}},
	2: {{0, 6144}, {6144, 6144}, {12288, 4104}, {16392, 4104}, {20496, 4152}, {24648, 4152}, {28800, 4145},
		{32945, 4146}, {37091, 4112}, {41203, 4113}, {45316, 4096}, {49412, 4096}, {53508, 4096}, {57604, 4096},
		{61700, 6041}, {67741, 6041}, {73782, 4132}, {77914, 4132}, {82046, 4105}, {86151, 4106}, {90257, 8050}},
}

// parkedApp is word count whose map waves block until gate closes.
type parkedApp struct {
	wcApp
	gate chan struct{}
}

func (a parkedApp) Map(split []byte, emit kv.Emitter[string, int64]) {
	<-a.gate
	a.wcApp.Map(split, emit)
}

// TestReadAheadSchedule pins the read schedule: at depth 1 it is the
// one the pipeline issued before reads ran ahead, and at depth 3 it does
// not depend on how long the waits take, under the nominal cut and the
// content-defined one alike. Every byte is read once. The buffer budget
// is max(depth, 2): with the mappers parked on the first chunk exactly
// budget-1 further reads are outstanding (depth of them once the
// mappers let go), and the run allocates no more buffers.
func TestReadAheadSchedule(t *testing.T) {
	text := scheduleText()
	ref := refCounts(text)
	check := func(t *testing.T, res *Result[string, int64], sched [][2]int64) {
		t.Helper()
		if len(res.Pairs) != len(ref) {
			t.Fatalf("%d words, want %d", len(res.Pairs), len(ref))
		}
		for _, p := range res.Pairs {
			if ref[p.Key] != p.Val {
				t.Fatalf("count[%q] = %d, want %d", p.Key, p.Val, ref[p.Key])
			}
		}
		var next int64
		for _, r := range sched {
			if r[0] != next {
				t.Fatalf("read at %d, want %d: reads must be contiguous, each byte once (%v)", r[0], next, sched)
			}
			next += r[1]
		}
		if next != int64(len(text)) {
			t.Fatalf("read %d bytes of %d", next, len(text))
		}
	}
	for lanes, want := range depth1Schedule {
		res, got, err := runRecorded(t, interStream, wcApp{}, &recInput{data: text}, Options{IOLanes: lanes})
		if err != nil {
			t.Fatal(err)
		}
		check(t, res, got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("lanes %d, depth 1 schedule changed:\n got  %v\n want %v", lanes, got, want)
		}
	}
	for _, st := range []recStream{interStream, cdcStream} {
		for _, lanes := range []int{1, 2} {
			var first [][2]int64
			for run := 0; run < 3; run++ {
				res, got, err := runRecorded(t, st, wcApp{}, &recInput{data: text, delay: 300 * time.Microsecond},
					Options{IOLanes: lanes, PrefetchDepth: 3})
				if err != nil {
					t.Fatal(err)
				}
				check(t, res, got)
				if run == 0 {
					first = got
				} else if fmt.Sprint(got) != fmt.Sprint(first) {
					t.Fatalf("%s, lanes %d, depth 3: schedule depends on wait timing:\n run 0 %v\n run %d %v", st.name, lanes, first, run, got)
				}
			}
		}
		for depth := 1; depth <= 4; depth++ {
			in := &recInput{data: text}
			app := parkedApp{gate: make(chan struct{})}
			list := chunk.NewFreeList()
			done := make(chan error, 1)
			var res *Result[string, int64]
			go func() {
				var err error
				res, _, err = runRecorded(t, st, app, in, Options{PrefetchDepth: depth, Freelist: list})
				done <- err
			}()
			// Wait for the pump to settle behind the parked mappers.
			issued, since := -1, time.Now()
			for time.Since(since) < 100*time.Millisecond {
				if n := len(in.schedule()); n != issued {
					issued, since = n, time.Now()
				}
				time.Sleep(time.Millisecond)
			}
			close(app.gate)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			check(t, res, in.schedule())
			budget := max(depth, 2)
			if issued-1 != budget-1 {
				t.Errorf("%s, depth %d: %d reads outstanding past the chunk being mapped, want %d", st.name, depth, issued-1, budget-1)
			}
			if gets, reuses := list.Stats(); gets-reuses > int64(budget) {
				t.Errorf("%s, depth %d: %d chunk buffers allocated, want at most %d", st.name, depth, gets-reuses, budget)
			}
		}
	}
}

// TestPrefetchRingDrainsOnMidStreamError: whatever ends a job early — a
// failed stream, a refused issue, a failed or panicking wait, a map
// panic, a cancellation — Run returns the error only after every read
// it dispatched has been joined and every chunk buffer is back on the
// freelist, at every depth, with no goroutine left behind. A refused
// issue and a failed wait are checked on every stream shape: the
// content-defined stream and both multi-file ones, an oversized file
// being split included.
func TestPrefetchRingDrainsOnMidStreamError(t *testing.T) {
	text := genText(t, 64<<10)
	wc := wcApp{}
	for _, depth := range []int{1, 2, 4, 8} {
		s := &errStream{inner: textStream(t, text, 4<<10), failAt: 5}
		_, err := Run[string, int64](wc, s, wc.NewContainer(8),
			Options{Options: mapreduce.Options{Workers: 2}, PrefetchDepth: depth})
		if err == nil || !strings.Contains(err.Error(), "mid-stream ingest failure") {
			t.Errorf("depth %d: err = %v, want the mid-stream failure", depth, err)
		}
	}

	base := runtime.NumGoroutine()
	type failure struct {
		name string
		in   func() *recInput
		app  func(cancel context.CancelFunc) kv.App[string, int64]
		want string
	}
	cases := []failure{
		{"issue", func() *recInput { return &recInput{failIssue: 6} }, nil, "issue refused"},
		{"wait", func() *recInput { return &recInput{failWait: 6} }, nil, "wait failed"},
		{"lane-panic", func() *recInput { return &recInput{panicWait: 6} }, nil, "lane died"},
		{"map-panic", nil, func(context.CancelFunc) kv.App[string, int64] { return panicApp{} }, "mapper exploded"},
		{"cancel", nil, func(cancel context.CancelFunc) kv.App[string, int64] { return &cancelApp{cancel: cancel} }, "context canceled"},
	}
	readFailures := cases[:2]
	// Every stream shape fails its sixth read: the content-defined one
	// mid-file, the file-count one in its second chunk, the byte-size one
	// while splitting the 40 KiB file.
	type streamCase struct {
		id string
		st recStream
		failure
	}
	var all []streamCase
	for _, tc := range cases {
		all = append(all, streamCase{tc.name, interStream, tc})
	}
	for _, st := range []recStream{cdcStream, filesStream, hybridStream} {
		for _, tc := range readFailures {
			all = append(all, streamCase{st.name + "/" + tc.name, st, tc})
		}
	}
	for _, tc := range all {
		for depth := 1; depth <= 4; depth++ {
			t.Run(fmt.Sprintf("%s/depth%d", tc.id, depth), func(t *testing.T) {
				in := &recInput{}
				if tc.in != nil {
					in = tc.in()
				}
				in.data, in.delay = scheduleTextBoom(), 200*time.Microsecond
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				pool := exec.NewPool(ctx, exec.Config{Workers: 2, IOWorkers: 2})
				defer pool.Close()
				var app kv.App[string, int64] = wcApp{}
				if tc.app != nil {
					app = tc.app(cancel)
				}
				list := chunk.NewFreeList()
				_, _, err := runRecorded(t, tc.st, app, in, Options{Options: mapreduce.Options{Pool: pool},
					PrefetchDepth: depth, IOLanes: 2, Freelist: list})
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("err = %v, want %q", err, tc.want)
				}
				if h, r := in.handed.Load(), in.returned.Load(); h != r {
					t.Errorf("Run returned with %d of %d dispatched waits still running", h-r, h)
				}
				if gets, reuses := list.Stats(); int64(list.Parked()) != gets-reuses {
					t.Errorf("%d chunk buffers parked, %d allocated: a buffer was not released", list.Parked(), gets-reuses)
				}
			})
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base+2 {
		t.Errorf("goroutine leak: %d now vs %d before the failure cases", n, base)
	}
}

// TestIngestPanicFailsTheJob: a panic while the pump reads — here in an
// input's issue — fails the job with an ingest *exec.PanicError at any
// lane count, as a panic in an IO lane task does.
func TestIngestPanicFailsTheJob(t *testing.T) {
	for _, lanes := range []int{1, 2} {
		_, _, err := runRecorded(t, interStream, wcApp{}, &recInput{data: scheduleText(), panicIssue: 4},
			Options{IOLanes: lanes, PrefetchDepth: 2})
		var pe *exec.PanicError
		if !errors.As(err, &pe) || pe.Phase != "ingest" {
			t.Errorf("lanes %d: err = %v, want an ingest *exec.PanicError", lanes, err)
		}
	}
}

// scheduleTextBoom is scheduleText with a record panicApp fails on,
// three quarters of the way in.
func scheduleTextBoom() []byte {
	b := scheduleText()
	copy(b[72<<10:], "\nboom\n")
	return b
}
