// supmrd client subcommands: `supmr submit|status|wait|cancel|list|stats`
// talk to a running supmrd over its unix socket, so one shared engine
// serves many short-lived CLI invocations.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"supmr/internal/cliutil"
	"supmr/internal/jobspec"
	"supmr/internal/server"
)

// clientCommands names the subcommands dispatched to a supmrd server.
var clientCommands = map[string]bool{
	"submit": true, "status": true, "wait": true,
	"cancel": true, "list": true, "stats": true,
}

// clientMain runs one client subcommand against supmrd and exits the
// process with its status.
func clientMain(cmd string, args []string) {
	switch cmd {
	case "submit":
		submitMain(args)
	case "status", "wait", "cancel":
		jobMain(cmd, args)
	case "list":
		listMain(args)
	case "stats":
		statsMain(args)
	}
	os.Exit(0)
}

func dial(socket string) *server.Client {
	c, err := server.Dial(socket)
	if err != nil {
		fmt.Fprintln(os.Stderr, "supmr:", err)
		os.Exit(1)
	}
	return c
}

// fatal prints the error and exits with its typed status: protocol
// rejections carry distinct codes (3 = multi-node unsupported, 4 = DAG
// unsupported) so scripts can tell "run it locally instead" apart from
// a plain failure.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "supmr:", err)
	os.Exit(cliutil.ExitCode(err))
}

// submitMain submits one job, optionally waiting for its result.
func submitMain(args []string) {
	fs := flag.NewFlagSet("supmr submit", flag.ExitOnError)
	var (
		socket   = fs.String("socket", "/tmp/supmrd.sock", "supmrd unix socket")
		app      = fs.String("app", "wordcount", "application: wordcount | sort | histogram | grep | psum1 | psum2")
		rt       = fs.String("runtime", "supmr", "runtime: traditional | supmr")
		size     = fs.String("size", "4m", "input size in bytes (k/m/g suffixes)")
		seed     = fs.Int64("seed", 1, "workload generation seed")
		chunkSz  = fs.String("chunk", "256k", "SupMR ingest chunk size")
		budget   = fs.String("budget", "0", "requested memory budget; the engine may grant less (0 = unbudgeted)")
		bw       = fs.String("bw", "0", "simulated storage bandwidth, bytes/sec (0 = infinite)")
		ioLanes  = fs.String("io-lanes", "1", "IO lanes for striped ingest")
		prefetch = fs.String("prefetch-depth", "1", "prefetch ring depth")
		pattern  = fs.String("pattern", "", "comma-separated patterns for -app grep")
		tenant   = fs.String("tenant", "", "tenant name for the engine's per-tenant rollup")
		weight   = fs.String("weight", "1", "fair-share weight on the engine scheduler")
		faults   = fs.String("faults", "", "deterministic fault plan (see supmr -faults)")
		retries  = fs.String("retries", "", "retry policy for transient faults (see supmr -retries)")
		memoKey  = fs.String("memo-key", "", "memo cache key space (default: derived from the app and its parameters)")
		egLanes  = fs.String("egress-lanes", "0", "IO lanes for parallel output egress (0 = keep pairs in memory only)")
		nodes    = fs.String("nodes", "0", "run on a simulated cluster of N SupMR worker nodes (0 = single-node)")
		block    = fs.String("block", "0", "records per block for -app psum1/psum2 (0 = default)")
		blocks   = fs.String("blocks", "0", "block count for -app psum2 (0 = derived from the input)")
		wait     = fs.Bool("wait", false, "block until the job finishes and print its result")
	)
	memo := onOffFlag(false)
	fs.Var(&memo, "memo", "content-addressed incremental recompute against the server's shared memo store; a re-submission over mostly unchanged content replays cached map output")
	radix := onOffFlag(true)
	fs.Var(&radix, "radixsort", "radix sort/columnar merge fast path for fixed-width-key apps; off is the comparison-sort ablation")
	fs.Parse(args)
	spec := jobspec.Spec{
		App:           *app,
		Runtime:       *rt,
		Size:          parseSize(*size),
		Seed:          *seed,
		ChunkBytes:    parseSize(*chunkSz),
		Budget:        parseSize(*budget),
		BW:            parseSize(*bw),
		IOLanes:       parseCount(*ioLanes),
		PrefetchDepth: parseCount(*prefetch),
		Pattern:       *pattern,
		Tenant:        *tenant,
		Weight:        parseCount(*weight),
		Faults:        *faults,
		Retries:       *retries,
		Memo:          bool(memo),
		MemoKey:       *memoKey,
		RadixOff:      !bool(radix),
		EgressLanes:   parseCount0(*egLanes),
		Nodes:         parseCount0(*nodes),
		Block:         int64(parseCount0(*block)),
		Blocks:        int64(parseCount0(*blocks)),
	}
	if spec.Runtime == "supmr" {
		spec.Runtime = "" // spec default
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "supmr:", err)
		os.Exit(2)
	}
	c := dial(*socket)
	defer c.Close()
	id, err := c.Submit(spec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("job %d submitted\n", id)
	if !*wait {
		return
	}
	v, err := c.Wait(id)
	if err != nil {
		fatal(err)
	}
	printJob(*v)
	if v.State != server.StateDone {
		os.Exit(1)
	}
}

// jobMain handles the id-addressed ops: status, wait, cancel.
func jobMain(op string, args []string) {
	fs := flag.NewFlagSet("supmr "+op, flag.ExitOnError)
	socket := fs.String("socket", "/tmp/supmrd.sock", "supmrd unix socket")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintf(os.Stderr, "supmr: usage: supmr %s [-socket PATH] JOB-ID\n", op)
		os.Exit(2)
	}
	id, err := strconv.ParseInt(fs.Arg(0), 10, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "supmr: bad job id %q\n", fs.Arg(0))
		os.Exit(2)
	}
	c := dial(*socket)
	defer c.Close()
	var v *server.JobView
	switch op {
	case "status":
		v, err = c.Status(id)
	case "wait":
		v, err = c.Wait(id)
	case "cancel":
		v, err = c.Cancel(id)
	}
	if err != nil {
		fatal(err)
	}
	printJob(*v)
}

func listMain(args []string) {
	fs := flag.NewFlagSet("supmr list", flag.ExitOnError)
	socket := fs.String("socket", "/tmp/supmrd.sock", "supmrd unix socket")
	fs.Parse(args)
	c := dial(*socket)
	defer c.Close()
	jobs, err := c.List()
	if err != nil {
		fatal(err)
	}
	for _, v := range jobs {
		printJob(v)
	}
}

func statsMain(args []string) {
	fs := flag.NewFlagSet("supmr stats", flag.ExitOnError)
	socket := fs.String("socket", "/tmp/supmrd.sock", "supmrd unix socket")
	fs.Parse(args)
	c := dial(*socket)
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("jobs: %d active, %d pending, %d submitted, %d completed, %d failed, %d rejected\n",
		st.ActiveJobs, st.PendingJobs, st.Submitted, st.Completed, st.Failed, st.Rejected)
	if st.BudgetTotal > 0 {
		fmt.Printf("budget: %s of %s free\n",
			cliutil.FormatBytes(st.BudgetRemaining), cliutil.FormatBytes(st.BudgetTotal))
	}
	fmt.Printf("chunks: %d gets, %d recycled\n", st.ChunkGets, st.ChunkReuses)
	if st.Memo != nil {
		m := st.Memo
		fmt.Printf("memo: %d hits, %d misses, %d entries (%s resident), %d stored, %d evicted, %d torn\n",
			m.Hits, m.Misses, m.Entries, cliutil.FormatBytes(m.Bytes), m.Stored, m.Evicted, m.Torn)
	}
	for name, t := range st.Tenants {
		fmt.Printf("tenant %-12s %d jobs (%d failed), %d pairs, %s ingested, %s spilled, %v busy\n",
			name, t.Jobs, t.Failed, t.OutputPairs,
			cliutil.FormatBytes(t.BytesIngested), cliutil.FormatBytes(t.SpilledBytes), t.Busy)
	}
}

// printJob renders one job line; finished jobs carry their digest so
// server-mode output can be diffed against a direct `supmr -digest` run.
func printJob(v server.JobView) {
	fmt.Printf("job %d  app=%s", v.ID, v.App)
	if v.Tenant != "" {
		fmt.Printf(" tenant=%s", v.Tenant)
	}
	fmt.Printf("  state=%s", v.State)
	if v.Error != "" {
		fmt.Printf("  error=%q", v.Error)
	}
	if v.Result != nil {
		fmt.Printf("\n  pairs=%d digest=%s\n  %s", v.Result.OutputPairs, v.Result.Digest, v.Result.Times)
		if v.Result.SpilledRuns > 0 {
			fmt.Printf("\n  spill: %d runs, %d bytes", v.Result.SpilledRuns, v.Result.SpilledBytes)
		}
		if v.Result.MemoHits > 0 || v.Result.MemoMisses > 0 {
			fmt.Printf("\n  memo: %d hits, %d misses, %s saved",
				v.Result.MemoHits, v.Result.MemoMisses, cliutil.FormatBytes(v.Result.MemoBytesSaved))
		}
		if v.Result.Nodes > 0 {
			fmt.Printf("\n  shuffle: %d node(s), %s in %d frame(s) on the wire",
				v.Result.Nodes, cliutil.FormatBytes(v.Result.ShuffleBytes), v.Result.ShuffleFrames)
		}
		if v.Result.RadixRuns > 0 {
			fmt.Printf("\n  sortpath: %d run(s) radix-sorted", v.Result.RadixRuns)
		}
		if v.Result.EgressBytes > 0 {
			fmt.Printf("\n  egress: %s in %d extent(s)",
				cliutil.FormatBytes(v.Result.EgressBytes), v.Result.EgressExtents)
		}
		if v.Result.Faults != "" {
			fmt.Printf("\n  faults: %s", v.Result.Faults)
		}
		for _, n := range v.Result.Notes {
			fmt.Printf("\n  note: %s", n)
		}
	}
	fmt.Println()
}
