// Custom: writing your own SupMR application. Implements a log-level
// histogram job from scratch — Map/Reduce/Less plus the optional
// Combine — and runs it with intra-file chunking over many small
// simulated log files, the Hadoop-style many-small-files input shape.
//
// Also demonstrates the set_data() callback (core.ChunkAware) through
// the built-in inverted index job.
//
//	go run ./examples/custom
package main

import (
	"bytes"
	"fmt"
	"log"

	"supmr"
)

// levelCount is a user-defined Job: it maps log lines to their severity
// level and counts occurrences per level.
type levelCount struct{}

var levels = [][]byte{[]byte("DEBUG"), []byte("INFO"), []byte("WARN"), []byte("ERROR")}

// Map scans each line for a known severity token.
func (levelCount) Map(split []byte, emit supmr.Emitter[string, int64]) {
	for len(split) > 0 {
		nl := bytes.IndexByte(split, '\n')
		var line []byte
		if nl < 0 {
			line, split = split, nil
		} else {
			line, split = split[:nl], split[nl+1:]
		}
		for _, lv := range levels {
			if bytes.Contains(line, lv) {
				emit.Emit(string(lv), 1)
				break
			}
		}
	}
}

// Reduce sums the per-level counts.
func (levelCount) Reduce(_ string, vs []int64) int64 {
	var s int64
	for _, v := range vs {
		s += v
	}
	return s
}

// Combine lets the hash container fold counts at insertion time.
func (levelCount) Combine(a, b int64) int64 { return a + b }

// Less orders levels alphabetically in the final output.
func (levelCount) Less(a, b string) bool { return a < b }

func main() {
	clock := supmr.NewClock()
	dev, err := supmr.NewDisk("logdisk", 32<<20, 0, clock)
	if err != nil {
		log.Fatal(err)
	}

	// 24 small "log files": reuse the text generator and sprinkle level
	// tokens by wrapping its fill.
	files := make([]supmr.Input, 24)
	for i := range files {
		f, err := supmr.TextFile(fmt.Sprintf("app-%02d.log", i), 256<<10, int64(i), dev)
		if err != nil {
			log.Fatal(err)
		}
		files[i] = logView{f}
	}

	rep, err := supmr.RunFiles[string, int64](
		levelCount{},
		files,
		supmr.NewHashContainer[string, int64](8, supmr.HashString, levelCount{}.Combine),
		supmr.Config{
			FilesPerChunk: 4, // intra-file chunking: 24 files -> 6 chunks
			Clock:         clock,
		},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("level histogram over %d files (%d ingest chunks):\n",
		len(files), rep.Stats.MapWaves)
	for _, p := range rep.Pairs {
		fmt.Printf("  %-6s %d\n", p.Key, p.Val)
	}
	fmt.Printf("phases: %s\n\n", rep.Times.String())

	// Bonus: the built-in inverted index uses the set_data() callback to
	// learn which file each ingest chunk came from.
	idxFiles := files[:6]
	ix := supmr.InvertedIndexJob()
	rep2, err := supmr.RunFiles[string, []string](ix, idxFiles, ix.NewContainer(16),
		supmr.Config{Runtime: supmr.RuntimeSupMR, FilesPerChunk: 1, Clock: clock})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inverted index over %d files: %d terms; e.g. %q appears in %v\n",
		len(idxFiles), len(rep2.Pairs), rep2.Pairs[0].Key, rep2.Pairs[0].Val)
}

// logView decorates generated text with severity tokens so levelCount
// has something to find: it rewrites the first word of each 256-byte
// region into a level name, deterministically.
type logView struct{ inner supmr.Input }

func (v logView) Name() string { return v.inner.Name() }
func (v logView) Size() int64  { return v.inner.Size() }

func (v logView) ReadAt(p []byte, off int64) (int, error) {
	n, err := v.inner.ReadAt(p, off)
	for i := 0; i < n; i++ {
		abs := off + int64(i)
		if abs%256 == 0 {
			lv := levels[(abs/256)%int64(len(levels))]
			copy(p[i:n], lv)
		}
	}
	return n, err
}
