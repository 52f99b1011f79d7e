package chunk

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
)

// goDispatch runs waits on fresh goroutines — the concurrency shape of
// the pool-backed dispatch, without needing a pool.
func goDispatch(_ int64, fn func()) func() error {
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	return func() error { <-done; return nil }
}

// laneInput is an in-memory IssueReader with a per-request byte cap
// (forcing short-read remainder rounds), a scheduled issue failure and
// scheduled faults in the waits, for exercising the segmented fetch
// without a storage device. It logs every request it is issued and
// counts the waits that have returned.
type laneInput struct {
	name      string
	data      []byte
	maxRead   int // cap bytes served per request (0 = unlimited)
	failAt    int // fail the k-th issue, 1-based (0 = never)
	shortAt   int // the k-th issue's wait serves half the request
	failWait  int // the k-th issue's wait returns an error
	panicWait int // the k-th issue's wait panics
	issues    int
	reqs      [][2]int64 // (offset, length) of every request issued
	waited    atomic.Int64
}

func (l *laneInput) Name() string { return l.name }
func (l *laneInput) Size() int64  { return int64(len(l.data)) }

func (l *laneInput) ReadAt(p []byte, off int64) (int, error) {
	w, err := l.IssueReadAt(p, off)
	if err != nil {
		return 0, err
	}
	return w()
}

func (l *laneInput) IssueReadAt(p []byte, off int64) (func() (int, error), error) {
	l.issues++
	k := l.issues
	if l.failAt > 0 && k == l.failAt {
		return nil, errors.New("issue failed")
	}
	if off >= int64(len(l.data)) {
		return nil, io.EOF
	}
	l.reqs = append(l.reqs, [2]int64{off, int64(len(p))})
	n := len(p)
	if rem := int(int64(len(l.data)) - off); n > rem {
		n = rem
	}
	if l.maxRead > 0 && n > l.maxRead {
		n = l.maxRead
	}
	if k == l.shortAt {
		n /= 2
	}
	q := p[:n]
	return func() (int, error) {
		defer l.waited.Add(1)
		switch k {
		case l.failWait:
			return 0, errors.New("wait failed")
		case l.panicWait:
			panic("lane died mid-group")
		}
		copy(q, l.data[off:off+int64(n)])
		return n, nil
	}, nil
}

func laneData(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i % 251)
	}
	return data
}

// recoverDispatch is goDispatch whose join reports a panic in fn as an
// error, as the pool-backed dispatch does.
func recoverDispatch(_ int64, fn func()) func() error {
	done := make(chan error, 1)
	go func() {
		var err error
		defer func() { done <- err }()
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("lane panicked: %v", p)
			}
		}()
		fn()
	}()
	return func() error { return <-done }
}

// laneRequests is the first round of requests a read of n bytes at off
// issues over lanes: each lane's share cut into maxRequest-byte
// requests and a shorter last one.
func laneRequests(off int64, n, lanes int) [][2]int64 {
	var want [][2]int64
	for _, s := range splitSegments(make([]byte, n), off, lanes) {
		for o := 0; o < len(s.buf); o += maxRequest {
			want = append(want, [2]int64{s.off + int64(o), int64(min(maxRequest, len(s.buf)-o))})
		}
	}
	return want
}

// TestFetchIntoSegmentedMatchesSerial: a segmented fetch fills exactly
// the input's bytes. With more than one lane each lane's share goes out
// as requests of at most maxRequest bytes, ceil(share/maxRequest) of
// them, in offset order; a short read re-issues its remainder alone.
func TestFetchIntoSegmentedMatchesSerial(t *testing.T) {
	data := laneData(1<<20 + 64<<10)
	for _, tc := range []struct {
		name    string
		lanes   int
		maxRead int
		off     int64
		n       int
	}{
		{"whole-4-lanes", 4, 0, 0, 64 << 10},
		{"offset-read", 4, 0, 1000, 40 << 10},
		{"short-read-rounds", 4, 3000, 0, 64 << 10},
		{"more-lanes-than-segments", 16, 0, 0, 9 << 10},
		{"below-segmentation-floor", 4, 0, 5, 2 * minSegment / 3},
		{"lane-groups-2-lanes", 2, 0, 0, 1 << 20},
		{"lane-groups-3-lanes-offset", 3, 0, 1000, 900 << 10},
		{"lane-groups-4-lanes", 4, 0, 7, 1<<20 + 5000},
		{"lane-groups-short-read-rounds", 2, 100 << 10, 0, 1 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := &laneInput{name: "in", data: data, maxRead: tc.maxRead}
			f := NewFetcher(tc.lanes, goDispatch)
			buf := make([]byte, tc.n)
			if err := f.fetchInto(in, buf, tc.off); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, data[tc.off:tc.off+int64(tc.n)]) {
				t.Fatal("segmented fetch differs from the input bytes")
			}
			want := laneRequests(tc.off, tc.n, tc.lanes)
			if got := in.reqs[:min(len(in.reqs), len(want))]; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("first round issued\n %v\nwant\n %v", got, want)
			}
			for _, r := range in.reqs {
				if r[1] > maxRequest && tc.lanes > 1 {
					t.Errorf("request %v larger than %d bytes", r, maxRequest)
				}
			}
		})
	}

	// Failures inside a lane's request group: two lanes of 512 KiB, four
	// requests each.
	first := laneRequests(0, 1<<20, 2)
	if len(first) != 8 {
		t.Fatalf("2 lanes of 512 KiB issue %d requests, want 8", len(first))
	}
	t.Run("short-read-mid-group", func(t *testing.T) {
		in := &laneInput{name: "in", data: data, shortAt: 3}
		buf := make([]byte, 1<<20)
		if err := NewFetcher(2, goDispatch).fetchInto(in, buf, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, data[:1<<20]) {
			t.Fatal("fetch differs from the input bytes")
		}
		half := first[2][1] / 2
		want := append(append([][2]int64(nil), first...), [2]int64{first[2][0] + half, first[2][1] - half})
		if fmt.Sprint(in.reqs) != fmt.Sprint(want) {
			t.Errorf("issued\n %v\nwant only the short request's remainder re-issued:\n %v", in.reqs, want)
		}
	})
	t.Run("issue-fails-mid-group", func(t *testing.T) {
		for k := 1; k <= len(first); k++ {
			in := &laneInput{name: "in", data: data, failAt: k}
			err := NewFetcher(2, goDispatch).fetchInto(in, make([]byte, 1<<20), 0)
			if err == nil || !strings.Contains(err.Error(), "issue failed") {
				t.Fatalf("k=%d: err = %v, want the issue failure", k, err)
			}
			if in.issues != k {
				t.Errorf("k=%d: %d issues, want none past the failed one", k, in.issues)
			}
			if w := in.waited.Load(); w != int64(k-1) {
				t.Errorf("k=%d: %d waits returned when the fetch did, want all %d issued before the failure", k, w, k-1)
			}
		}
	})
	for _, tc := range []struct {
		name                string
		failWait, panicWait int
		want                string
	}{
		{"wait-fails-mid-group", 3, 0, "wait failed"},
		{"lane-panics-mid-group", 0, 2, "lane panicked"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := &laneInput{name: "in", data: data, failWait: tc.failWait, panicWait: tc.panicWait}
			err := NewFetcher(2, recoverDispatch).fetchInto(in, make([]byte, 1<<20), 0)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
			if w := in.waited.Load(); w != int64(len(first)) {
				t.Errorf("%d of %d waits returned when the fetch did", w, len(first))
			}
		})
	}
}

func TestFetchIntoStopsIssuingAfterIssueError(t *testing.T) {
	// Serial-issue semantics: segments past a failed issue are never
	// issued — exactly where a serial read would have stopped — so a
	// fault plan sees the same per-site operation count at any lane
	// count.
	in := &laneInput{name: "in", data: laneData(32 << 10), failAt: 2}
	f := NewFetcher(4, goDispatch)
	err := f.fetchInto(in, make([]byte, 32<<10), 0)
	if err == nil || !strings.Contains(err.Error(), "issue failed") {
		t.Fatalf("err = %v, want the issue failure", err)
	}
	if in.issues != 2 {
		t.Errorf("issued %d reads after a failure at issue 2, want exactly 2", in.issues)
	}
}

func TestFetchIntoJoinErrorWins(t *testing.T) {
	// A dispatch join error (lane panic, pool shutdown) must discard the
	// segment's effects and fail the fetch, even though the wait itself
	// reported success.
	in := &laneInput{name: "in", data: laneData(32 << 10)}
	boom := errors.New("lane died")
	deadDispatch := func(_ int64, fn func()) func() error {
		fn()
		return func() error { return boom }
	}
	f := NewFetcher(4, deadDispatch)
	if err := f.fetchInto(in, make([]byte, 32<<10), 0); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the join error", err)
	}
}

// zeroInput's waits deliver no bytes and no error.
type zeroInput struct{ laneInput }

func (z *zeroInput) IssueReadAt(p []byte, off int64) (func() (int, error), error) {
	return func() (int, error) { return 0, nil }, nil
}

func TestFetchIntoZeroProgressIsUnexpectedEOF(t *testing.T) {
	z := &zeroInput{laneInput{name: "z", data: laneData(32 << 10)}}
	f := NewFetcher(4, goDispatch)
	if err := f.fetchInto(z, make([]byte, 32<<10), 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestFreelistRecyclesBackingNeverFiles(t *testing.T) {
	f := NewFetcher(1, nil)
	c := f.acquire(1 << 10)
	c.backing = c.backing[:cap(c.backing)]
	c.Data = c.backing
	c.Files = append(c.Files, "a.txt")
	retained := c.Files // what an application keeps past the map wave
	first := &c.backing[0]
	c.Release()

	c2 := f.acquire(512)
	if &c2.backing[:1][0] != first {
		t.Error("freelist did not recycle the backing buffer")
	}
	if c2.Data != nil {
		t.Error("recycled chunk leaked Data")
	}
	// Files must be a fresh slice per chunk: applications may retain the
	// previous chunk's slice past its map wave (the inverted index emits
	// it into the container as posting-list values).
	if c2.Files != nil {
		t.Error("recycled chunk reused the Files slice")
	}
	c2.Files = append(c2.Files, "b.txt")
	if retained[0] != "a.txt" {
		t.Error("new chunk's Files overwrote a slice retained from the released chunk")
	}

	// Release is idempotent and nil-fetcher chunks are release-safe.
	c2.Release()
	c2.Release()
	if got := len(f.list.free); got != 1 {
		t.Errorf("double release grew the freelist to %d", got)
	}
	(&Chunk{}).Release()

	var nilF *Fetcher
	if c := nilF.acquire(64); c == nil || c.free != nil {
		t.Error("nil fetcher acquire broken")
	}
}

func TestGrowTo(t *testing.T) {
	buf := append(make([]byte, 0, 8), "abc"...)
	grown := growTo(buf, 100)
	if len(grown) != 103 {
		t.Fatalf("len = %d, want 103", len(grown))
	}
	if string(grown[:3]) != "abc" {
		t.Error("growTo lost the existing prefix")
	}
	// Within capacity: no reallocation.
	big := make([]byte, 3, 256)
	if g := growTo(big, 100); cap(g) != 256 || &g[0] != &big[0] {
		t.Error("growTo reallocated within capacity")
	}
	// Doubling: repeated small growth must not reallocate every call.
	var reallocs int
	b := make([]byte, 0, 1)
	for i := 0; i < 1024; i++ {
		before := cap(b)
		b = growTo(b, 1)
		if cap(b) != before {
			reallocs++
		}
	}
	if reallocs > 12 {
		t.Errorf("%d reallocations growing to 1 KiB byte-by-byte — not amortized", reallocs)
	}
}

func TestInterFileWithFetcherRecyclesBuffers(t *testing.T) {
	text := []byte(strings.Repeat("alpha beta gamma delta epsilon\n", 4000))
	s, err := NewInterFile(memFile(t, "f", text), 16<<10, NewlineBoundary{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetFetcher(NewFetcher(4, goDispatch))
	var got []byte
	backings := map[*byte]bool{}
	for {
		c, err := s.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		backings[&c.backing[:1][0]] = true
		got = append(got, c.Data...)
		c.Release()
	}
	if !bytes.Equal(got, text) {
		t.Fatal("fetcher-backed stream reassembly differs from the input")
	}
	// Serial consume-then-release must cycle O(1) buffers, not one per
	// chunk (the stream also keeps a persistent carry scratch).
	if len(backings) > 2 {
		t.Errorf("%d distinct chunk buffers for %d bytes — freelist not recycling", len(backings), len(text))
	}
}

// faultAtInput is an in-memory IssueReader whose faults sit at byte
// offsets rather than at operation counts, so a serial read and a
// segmented one meet the same faults whatever requests they cut: a
// request serves at most maxRead bytes and stops short at shortAt, and
// the request serving byte failAt fails at issue or in its wait.
type faultAtInput struct {
	data            []byte
	maxRead         int64
	shortAt, failAt int64 // -1: none
	failWait        bool
}

var (
	errFaultIssue = errors.New("fault at issue")
	errFaultWait  = errors.New("fault in wait")
)

func (in *faultAtInput) Name() string { return "faultAt" }
func (in *faultAtInput) Size() int64  { return int64(len(in.data)) }

func (in *faultAtInput) ReadAt(p []byte, off int64) (int, error) {
	w, err := in.IssueReadAt(p, off)
	if err != nil {
		return 0, err
	}
	return w()
}

func (in *faultAtInput) IssueReadAt(p []byte, off int64) (func() (int, error), error) {
	size := int64(len(in.data))
	if off >= size {
		return nil, io.EOF
	}
	n := min(int64(len(p)), size-off)
	if in.maxRead > 0 {
		n = min(n, in.maxRead)
	}
	if off < in.shortAt && in.shortAt < off+n {
		n = in.shortAt - off
	}
	failed := off <= in.failAt && in.failAt < off+n
	if failed && !in.failWait {
		return nil, errFaultIssue
	}
	return func() (int, error) {
		if failed {
			return 0, errFaultWait
		}
		return copy(p, in.data[off:off+n]), nil
	}, nil
}

// FuzzLaneRequestsVsSerial: a fetch over 1 to 4 lanes, its shares cut
// into requests of at most maxRequest bytes, fills the same bytes and
// returns the same error as the serial readFull, under short reads, a
// per-request byte cap, a read past the end and a fault at issue or in
// a wait.
func FuzzLaneRequestsVsSerial(f *testing.F) {
	data := laneData(1<<20 + 200<<10)
	f.Add(uint8(1), uint32(1<<20), uint32(0), uint32(0), uint32(0), uint32(0), uint8(0))
	f.Add(uint8(1), uint32(1<<20), uint32(5000), uint32(0), uint32(300<<10), uint32(0), uint8(0))
	f.Add(uint8(3), uint32(1<<20), uint32(0), uint32(100<<10), uint32(0), uint32(700<<10), uint8(2))
	f.Add(uint8(3), uint32(1<<20), uint32(300<<10), uint32(0), uint32(0), uint32(200<<10), uint8(2))
	f.Add(uint8(2), uint32(900<<10), uint32(10), uint32(60<<10), uint32(131072), uint32(600<<10), uint8(1))
	// A fault in a wait below a share that starts past the end: the
	// lower-offset failure wins over the later share's io.EOF at issue.
	f.Add(uint8(1), uint32(1<<20), uint32(1100<<10), uint32(0), uint32(0), uint32(1150<<10), uint8(2))
	f.Fuzz(func(t *testing.T, lanes uint8, n, off, maxRead, shortAt, failAt uint32, mode uint8) {
		size := uint32(len(data))
		mk := func() *faultAtInput {
			in := &faultAtInput{data: data, maxRead: int64(maxRead % (256 << 10)), shortAt: -1, failAt: -1}
			if shortAt%2 == 1 {
				in.shortAt = int64(shortAt % size)
			}
			if m := mode % 3; m > 0 {
				in.failAt, in.failWait = int64(failAt%size), m == 2
			}
			return in
		}
		n %= 1<<20 + 1
		off %= size + 1
		want := make([]byte, n)
		wantErr := readFull(mk(), want, int64(off))
		got := make([]byte, n)
		gotErr := NewFetcher(int(lanes%4)+1, goDispatch).fetchInto(mk(), got, int64(off))
		if gotErr != wantErr {
			t.Fatalf("lanes %d: err = %v, serial read gave %v", lanes%4+1, gotErr, wantErr)
		}
		if wantErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("lanes %d: bytes differ from the serial read", lanes%4+1)
		}
	})
}
