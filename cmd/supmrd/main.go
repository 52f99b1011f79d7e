// Command supmrd is the SupMR job server: one long-running process
// owning a shared Engine — worker pool, IO lanes, chunk freelist and a
// global memory budget — that concurrent jobs are submitted to over a
// local unix socket. The operation-level fair-share scheduler
// interleaves the admitted jobs' map waves, spill drains and merges so
// a short job is never FIFO-blocked behind a long one.
//
// Examples:
//
//	supmrd -socket /tmp/supmrd.sock -workers 8 -io-lanes 4 -budget 256m
//	supmr submit -socket /tmp/supmrd.sock -app wordcount -size 32m -wait
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"supmr"
	"supmr/internal/cliutil"
	"supmr/internal/server"
)

func main() {
	var (
		socket     = flag.String("socket", "/tmp/supmrd.sock", "unix socket path to listen on")
		workers    = flag.Int("workers", 0, "shared compute workers every job draws from (0 = GOMAXPROCS)")
		ioLanes    = flag.String("io-lanes", "1", "shared IO lanes serving every job's ingest and spill")
		budget     = flag.String("budget", "0", "global intermediate-memory budget carved into per-job grants (0 = unbudgeted)")
		maxJobs    = flag.String("max-jobs", "4", "concurrently running jobs; further submissions queue")
		maxPending = flag.Int("max-pending", -2, "pending-job backlog bound; -1 = unbounded, 0 = reject when busy (default 2*max-jobs)")
		opSlots    = flag.String("op-slots", "1", "compute operations (map waves, spill drains, merges) running at once")
		memoBudg   = flag.String("memo-budget", "64m", "shared memo-store byte budget; least-recently-used entries evict beyond it")
	)
	memo := cliutil.OnOff(true)
	flag.Var(&memo, "memo", "host a shared memo store: memoized submissions (supmr submit -memo) replay cached map output across jobs; off disables it")
	flag.Parse()

	ec := supmr.EngineConfig{
		Workers:      *workers,
		IOLanes:      parseCount(*ioLanes),
		MemoryBudget: parseSize(*budget),
		MaxJobs:      parseCount(*maxJobs),
		OpSlots:      parseCount(*opSlots),
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "supmrd: -workers must not be negative, got %d\n", *workers)
		os.Exit(2)
	}
	if *maxPending != -2 {
		if *maxPending < -1 {
			fmt.Fprintf(os.Stderr, "supmrd: -max-pending must be -1 (unbounded) or >= 0, got %d\n", *maxPending)
			os.Exit(2)
		}
		ec.MaxPending = maxPending
	}
	memoState := "off"
	if memo {
		store, err := supmr.NewMemoStore(supmr.MemoConfig{Budget: parseSize(*memoBudg)})
		if err != nil {
			fmt.Fprintln(os.Stderr, "supmrd:", err)
			os.Exit(2)
		}
		defer store.Close()
		ec.Memo = store
		memoState = cliutil.FormatBytes(parseSize(*memoBudg))
	}

	srv, err := server.New(server.Config{Socket: *socket, Engine: ec})
	if err != nil {
		fmt.Fprintln(os.Stderr, "supmrd:", err)
		os.Exit(1)
	}
	// SIGINT/SIGTERM drain the server: stop accepting, cancel running
	// jobs, close the engine.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "supmrd: shutting down")
		srv.Close()
	}()

	fmt.Printf("supmrd: listening on %s (workers=%d io-lanes=%d budget=%s max-jobs=%d memo=%s)\n",
		*socket, ec.Workers, ec.IOLanes, cliutil.FormatBytes(ec.MemoryBudget), ec.MaxJobs, memoState)
	if err := srv.Serve(); err != nil {
		fmt.Fprintln(os.Stderr, "supmrd:", err)
		os.Exit(1)
	}
}

// parseSize parses "64", "64k", "4m", "2g" into bytes; bad or negative
// values are a usage error.
func parseSize(s string) int64 {
	v, err := cliutil.ParseSize(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "supmrd:", err)
		os.Exit(2)
	}
	return v
}

// parseCount parses a positive integer; zero or negative is a usage
// error.
func parseCount(s string) int {
	v, err := cliutil.ParseCount(s, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "supmrd:", err)
		os.Exit(2)
	}
	return v
}
