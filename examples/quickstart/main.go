// Quickstart: count words with the SupMR runtime in a dozen lines.
//
// A Job supplies Map, Reduce and Less; the hash container (with the
// job's combiner) stores intermediate pairs; Run executes the ingest
// chunk pipeline and returns key-sorted results.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"

	"supmr"
)

func main() {
	text := strings.Repeat("the quick brown fox jumps over the lazy dog\n", 1000) +
		strings.Repeat("pack my box with five dozen liquor jugs\n", 500)

	report, err := supmr.RunBytes[string, int64](
		supmr.WordCountJob(),         // map = tokenize, reduce = sum
		[]byte(text),                 // in-memory input
		supmr.WordCountContainer(16), // hash container with combiner
		supmr.Config{
			ChunkBytes: 8 << 10, // stream the input as 8 KiB ingest chunks
		},
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("phases: %s\n", report.Times.String())
	fmt.Printf("%d distinct words over %d map waves\n\n",
		len(report.Pairs), report.Stats.MapWaves)
	fmt.Println("top words:")
	top := report.Pairs
	// Pairs come back sorted by key; pick the highest counts for display.
	best := make([]supmr.Pair[string, int64], len(top))
	copy(best, top)
	for i := 0; i < len(best); i++ {
		for j := i + 1; j < len(best); j++ {
			if best[j].Val > best[i].Val {
				best[i], best[j] = best[j], best[i]
			}
		}
	}
	for i := 0; i < 5 && i < len(best); i++ {
		fmt.Printf("  %-8s %d\n", best[i].Key, best[i].Val)
	}
}
