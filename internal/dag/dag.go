// Package dag chains jobspec rounds into a multi-round pipeline: each
// node runs one job, and a node naming another as its input consumes
// that round's egressed output directly — the extent set of the
// upstream egress.Writer becomes the downstream prefetch pump's
// chunk.Input with no intermediate file materialized. The Materialize
// option is the ablation/differential baseline: it stitches each
// upstream output into an in-memory file and re-ingests that instead,
// and because egressed bytes are byte-identical at any lane count the
// two modes must produce identical digests round for round.
package dag

import (
	"context"
	"fmt"

	"supmr"
	"supmr/internal/jobspec"
)

// Node is one round of the pipeline.
type Node struct {
	// ID names the node; edges reference it.
	ID string `json:"id"`
	// Spec is the round's job. Consumed rounds (ones another node pipes
	// from) default EgressLanes to 1 when unset, since piping requires a
	// materialized-in-extents output.
	Spec jobspec.Spec `json:"spec"`
	// Input, when non-empty, is the ID of the upstream node whose
	// egressed output this round ingests. Empty means the round runs
	// over its spec's generated workload (a source round).
	Input string `json:"input,omitempty"`
}

// Graph is a set of rounds wired by Input edges.
type Graph struct {
	Nodes []Node `json:"nodes"`
}

// Round reports one completed round in execution order.
type Round struct {
	ID  string          `json:"id"`
	Res *jobspec.Result `json:"res"`
}

// Result reports a completed pipeline run.
type Result struct {
	// Rounds lists every round in the order executed (a topological
	// order of the graph).
	Rounds []Round `json:"rounds"`
}

// Final returns the last executed round — the pipeline's sink when the
// graph is a chain.
func (r *Result) Final() *Round {
	if len(r.Rounds) == 0 {
		return nil
	}
	return &r.Rounds[len(r.Rounds)-1]
}

// Options tunes a pipeline run.
type Options struct {
	// Engine, when non-nil, submits every round to the shared engine.
	Engine *supmr.Engine
	// Materialize switches piped edges to the baseline path: each
	// upstream output is stitched into an in-memory file and the
	// downstream round ingests that file. Digests must match the piped
	// mode exactly.
	Materialize bool
}

// Validate rejects malformed graphs: duplicate or empty IDs, edges to
// unknown nodes, cycles, and per-node spec problems, a consumer's
// refusals of a piped input among them.
func (g Graph) Validate() error {
	if len(g.Nodes) == 0 {
		return fmt.Errorf("dag: empty graph")
	}
	byID := make(map[string]int, len(g.Nodes))
	for i, n := range g.Nodes {
		if n.ID == "" {
			return fmt.Errorf("dag: node %d has no id", i)
		}
		if _, dup := byID[n.ID]; dup {
			return fmt.Errorf("dag: duplicate node id %q", n.ID)
		}
		byID[n.ID] = i
	}
	for _, n := range g.Nodes {
		validate := n.Spec.Validate
		if n.Input != "" {
			validate = n.Spec.ValidatePiped
		}
		if err := validate(); err != nil {
			return fmt.Errorf("dag: node %q: %w", n.ID, err)
		}
		if n.Spec.Nodes > 0 {
			return fmt.Errorf("dag: node %q: multi-node rounds cannot be chained (nodes > 0)", n.ID)
		}
		if n.Input == "" {
			continue
		}
		if n.Input == n.ID {
			return fmt.Errorf("dag: node %q pipes from itself", n.ID)
		}
		if _, ok := byID[n.Input]; !ok {
			return fmt.Errorf("dag: node %q pipes from unknown node %q", n.ID, n.Input)
		}
	}
	if _, err := g.order(); err != nil {
		return err
	}
	return nil
}

// order returns a topological execution order (Kahn's algorithm over
// the Input edges; each node has at most one).
func (g Graph) order() ([]int, error) {
	byID := make(map[string]int, len(g.Nodes))
	for i, n := range g.Nodes {
		byID[n.ID] = i
	}
	indeg := make([]int, len(g.Nodes))
	downstream := make([][]int, len(g.Nodes))
	for i, n := range g.Nodes {
		if n.Input == "" {
			continue
		}
		up, ok := byID[n.Input]
		if !ok {
			return nil, fmt.Errorf("dag: node %q pipes from unknown node %q", n.ID, n.Input)
		}
		indeg[i]++
		downstream[up] = append(downstream[up], i)
	}
	var ready, order []int
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		i := ready[0]
		ready = ready[1:]
		order = append(order, i)
		for _, dn := range downstream[i] {
			if indeg[dn]--; indeg[dn] == 0 {
				ready = append(ready, dn)
			}
		}
	}
	if len(order) != len(g.Nodes) {
		return nil, fmt.Errorf("dag: graph has a cycle")
	}
	return order, nil
}

// Run executes the pipeline in topological order, threading each
// consumed round's egressed output into its downstream round. ctx
// cancellation aborts between and within rounds.
func Run(ctx context.Context, g Graph, opt Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	order, err := g.order()
	if err != nil {
		return nil, err
	}
	consumed := make(map[string]bool, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.Input != "" {
			consumed[n.Input] = true
		}
	}

	outputs := make(map[string]*supmr.EgressOutput, len(g.Nodes))
	results := make(map[string]*jobspec.Result, len(g.Nodes))
	defer func() {
		for _, out := range outputs {
			if out != nil {
				out.Close()
			}
		}
	}()

	res := &Result{Rounds: make([]Round, 0, len(g.Nodes))}
	for _, i := range order {
		n := g.Nodes[i]
		spec := n.Spec
		if consumed[n.ID] && spec.EgressLanes == 0 {
			spec.EgressLanes = 1 // piping needs a materialized-in-extents output
		}

		var input supmr.Input
		if n.Input != "" {
			up := outputs[n.Input]
			if up == nil {
				return nil, fmt.Errorf("dag: node %q: upstream %q produced no egress output", n.ID, n.Input)
			}
			if spec.App == "psum2" && spec.Blocks == 0 {
				// Round 1 emitted one pair per block; its pair count is the
				// block count round 2 needs.
				spec.Blocks = int64(results[n.Input].OutputPairs)
			}
			if opt.Materialize {
				data, err := up.Bytes()
				if err != nil {
					return nil, fmt.Errorf("dag: node %q: stitch upstream %q: %w", n.ID, n.Input, err)
				}
				input = supmr.MemoryFile(n.Input+".out", data, supmr.NewClock())
			} else {
				input = up
			}
		}

		jr, out, err := jobspec.RunInput(ctx, spec, opt.Engine, input)
		if err != nil {
			return nil, fmt.Errorf("dag: node %q: %w", n.ID, err)
		}
		results[n.ID] = jr
		outputs[n.ID] = out
		res.Rounds = append(res.Rounds, Round{ID: n.ID, Res: jr})
	}
	return res, nil
}
