package jobspec_test

import (
	"encoding/json"
	"errors"
	"testing"

	"supmr"
	"supmr/internal/dag"
	"supmr/internal/jobspec"
)

// FuzzSpecValidate decodes arbitrary bytes as the two things a supmrd
// submission carries, a jobspec.Spec and a dag.Graph, and validates
// them: every input must end in acceptance or an error, never a panic,
// and a refusal that is a *supmr.ConfigError names both of its sides.
func FuzzSpecValidate(f *testing.F) {
	for _, seed := range []string{
		`{"app":"wordcount"}`,
		`{"app":"wordcount","memo":true,"nodes":3,"budget":1048576}`,
		`{"app":"sort","runtime":"traditional","chunk":-1,"io_lanes":-2}`,
		`{"app":"kmeans","memo_key":"k","faults":"seed=7,read-err-every=5","retries":"attempts=4"}`,
		`{"app":"psum2","blocks":-1,"block":8,"innode_combiner_off":true}`,
		`{"nodes":[{"id":"part","spec":{"app":"psum1","block":256,"egress_lanes":2}},{"id":"total","spec":{"app":"psum2"},"input":"part"}]}`,
		`{"nodes":[{"id":"a","spec":{"app":"sort"},"input":"a"},{"id":"","spec":{}}]}`,
		`{"nodes":[{"id":"a","spec":{"app":"wordcount","memo":true,"chunk":4096},"input":"b"},{"id":"b","spec":{"app":"wordcount"},"input":"a"}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(what string, err error) {
			var ce *supmr.ConfigError
			if errors.As(err, &ce) && (ce.Knob == "" || ce.With == "" || ce.Reason == "") {
				t.Fatalf("%s: refusal %q leaves a side unnamed: %+v", what, err, *ce)
			}
		}
		var spec jobspec.Spec
		if json.Unmarshal(data, &spec) == nil {
			check("spec", spec.Validate())
		}
		var g dag.Graph
		if json.Unmarshal(data, &g) == nil {
			check("graph", g.Validate())
		}
	})
}
