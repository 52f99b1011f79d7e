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
	"supmr/internal/server"
)

// subcommands routes `supmr <name> ...`: the supmrd client operations
// and the local pipeline runner. Each exits the process on failure.
var subcommands = map[string]func(args []string){
	"submit":   submitMain,
	"status":   jobMain("status", (*server.Client).Status),
	"wait":     jobMain("wait", (*server.Client).Wait),
	"cancel":   jobMain("cancel", (*server.Client).Cancel),
	"list":     listMain,
	"stats":    statsMain,
	"pipeline": pipelineMain,
}

func dial(socket string) *server.Client {
	c, err := server.Dial(socket)
	if err != nil {
		fatal(err)
	}
	return c
}

// fatal prints the error and exits with its status: 2 for a refused
// configuration, 1 for any other failure.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "supmr:", err)
	os.Exit(cliutil.ExitCode(err))
}

// submitMain submits one job, optionally waiting for its result.
func submitMain(args []string) {
	fs := flag.NewFlagSet("supmr submit", flag.ExitOnError)
	wire := specFlags(fs, "4m", "256k", "0")
	var (
		socket  = fs.String("socket", "/tmp/supmrd.sock", "supmrd unix socket")
		tenant  = fs.String("tenant", "", "tenant name for the engine's per-tenant rollup")
		weight  = fs.String("weight", "1", "fair-share weight on the engine scheduler")
		memoKey = fs.String("memo-key", "", "memo cache key space (default: derived from the app and its parameters)")
		block   = fs.String("block", "0", "records per block for the prefix-sum rounds (0 = default)")
		blocks  = fs.String("blocks", "0", "block count for the second prefix-sum round (0 = derived from the input)")
		wait    = fs.Bool("wait", false, "block until the job finishes and print its result")
	)
	fs.Parse(args)
	spec := wire()
	unsetChunkDefault(fs, &spec)
	spec.Tenant, spec.Weight, spec.MemoKey = *tenant, parseCount(*weight), *memoKey
	spec.Block, spec.Blocks = int64(parseCount0(*block)), int64(parseCount0(*blocks))
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
func jobMain(op string, call func(*server.Client, int64) (*server.JobView, error)) func(args []string) {
	return func(args []string) {
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
		v, err := call(c, id)
		if err != nil {
			fatal(err)
		}
		printJob(*v)
	}
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
	fmt.Println()
	if v.Result != nil {
		fmt.Printf("  pairs=%d digest=%s\n", v.Result.OutputPairs, v.Result.Digest)
		if v.Result.Times != "" { // an iterative driver's result has no one job's times
			fmt.Printf("  %s\n", v.Result.Times)
		}
		v.Result.WriteReport(os.Stdout, "  ")
	}
}
