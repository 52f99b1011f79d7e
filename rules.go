package supmr

// ConfigError is a refused configuration: Knob cannot run with With
// (another knob, the preset, a value below 0 or the input's shape) for
// Reason. Validate, Run and the RunFile and StreamFile family return
// one for every refusal, before any input byte is read.
type ConfigError struct {
	Knob, With, Reason string
}

func (e *ConfigError) Error() string {
	return e.Knob + " is incompatible with " + e.With + ": " + e.Reason
}

// inputShape is what the rules know of the input: nothing (Validate,
// and Run over a stream its caller built), one file or many files.
type inputShape int

const (
	anyInput inputShape = iota
	oneFile
	manyFiles
)

// settings is what a rule reads: the Config, the preset, the shape.
type settings struct {
	Config
	whole bool
	shape inputShape
}

// modeRule refuses knob beside with, for why, when clash holds.
type modeRule struct {
	knob, with, why string
	clash           func(s *settings) bool
}

const (
	below0   = "a value below 0"
	byDef    = "0 selects the default"
	oneRound = "the preset reads the whole input as one chunk: there is nothing to memoize, shard, bound or reset per chunk"
)

// modeRules is the one statement of the mode rules, in the order
// resolve checks them. The Config fields no row names are substrate or
// honoured in every mode (TestEveryKnobRuled lists them with the reason).
var modeRules = []modeRule{
	{"Workers", below0, byDef, func(s *settings) bool { return s.Workers < 0 }},
	{"Splits", below0, byDef, func(s *settings) bool { return s.Splits < 0 }},
	{"ChunkBytes", below0, "0 reads the input as one chunk", func(s *settings) bool { return s.ChunkBytes < 0 }},
	{"FilesPerChunk", below0, "0 reads one file per chunk", func(s *settings) bool { return s.FilesPerChunk < 0 }},
	{"MemoryBudget", below0, "0 is unbudgeted", func(s *settings) bool { return s.MemoryBudget < 0 }},
	{"IOLanes", below0, byDef, func(s *settings) bool { return s.IOLanes < 0 }},
	{"PrefetchDepth", below0, byDef, func(s *settings) bool { return s.PrefetchDepth < 0 }},
	{"Weight", below0, "the engine fair-share weight is at least 1, and " + byDef, func(s *settings) bool { return s.Weight < 0 }},
	{"Nodes", below0, "0 is the single-node pipeline", func(s *settings) bool { return s.Nodes < 0 }},
	{"EgressLanes", below0, "0 skips egress", func(s *settings) bool { return s.EgressLanes < 0 }},
	{"EgressExtentBytes", below0, byDef, func(s *settings) bool { return s.EgressExtentBytes < 0 }},

	// The preset is one round, and these modes need more.
	{"Memo", "RuntimeTraditional", oneRound, func(s *settings) bool { return s.whole && s.Memo }},
	{"Nodes", "RuntimeTraditional", oneRound, func(s *settings) bool { return s.whole && s.Nodes > 0 }},
	{"MemoryBudget", "RuntimeTraditional", oneRound, func(s *settings) bool { return s.whole && s.MemoryBudget > 0 }},
	{"ResetEachRound", "RuntimeTraditional", oneRound, func(s *settings) bool { return s.whole && s.ResetEachRound }},

	// A knob of a mode that is off.
	{"InNodeCombiner", "Nodes 0", "turning the in-node combiner off is an ablation of a multi-node run", func(s *settings) bool { return s.InNodeCombiner != nil && !*s.InNodeCombiner && s.Nodes == 0 }},
	{"NodeLinkBW", "Nodes 0", "the links join the nodes of a multi-node run", func(s *settings) bool { return s.NodeLinkBW != 0 && s.Nodes == 0 }},
	{"NodeLinkLatency", "Nodes 0", "the links join the nodes of a multi-node run", func(s *settings) bool { return s.NodeLinkLatency != 0 && s.Nodes == 0 }},
	{"MemoBudget", "Memo off", "it sizes a memoized run's private store", func(s *settings) bool { return s.MemoBudget != 0 && !s.Memo }},
	{"EgressExtentBytes", "EgressLanes 0", "it sizes the extents egress writes", func(s *settings) bool { return s.EgressExtentBytes != 0 && s.EgressLanes == 0 }},
	{"TraceBucket", "TraceContexts 0", "it is the width of a utilization trace's buckets", func(s *settings) bool { return s.TraceBucket != 0 && s.TraceContexts <= 0 }},

	// Memo and Nodes each bind a chunk to what is done with its output (a
	// cache entry, a node's container).
	{"MemoBudget", "a supplied MemoStore", "the store's own budget governs (MemoStore or the engine's shared store)", func(s *settings) bool {
		return s.MemoBudget != 0 && (s.MemoStore != nil || s.Engine != nil && s.Engine.memo != nil)
	}},
	{"MemoryBudget", "Memo", "a memoized run folds every chunk's output into its in-memory container and finishes resident, with no spill path for a budget to bound", func(s *settings) bool { return s.Memo && s.MemoryBudget > 0 }},
	{"Memo", "AdaptiveChunks", "retuned chunk sizes would make chunk boundaries, and with them cache keys, depend on timing", func(s *settings) bool { return s.Memo && s.AdaptiveChunks }},
	{"Memo", "ResetEachRound", "the container is already drained after every chunk", func(s *settings) bool { return s.Memo && s.ResetEachRound }},
	{"MemoryBudget", "Nodes", "a node's container holds everything the node mapped until the exchange, with no spill path for a budget to bound", func(s *settings) bool { return s.Nodes > 0 && s.MemoryBudget > 0 }},
	{"Nodes", "ResetEachRound", "resetting a node's container every round would discard the map output it holds for the exchange", func(s *settings) bool { return s.Nodes > 0 && s.ResetEachRound }},

	// The input's shape, known to the stream builders. The preset sets the
	// chunk-shape knobs aside instead.
	{"Memo", "a multi-file input", "multi-file chunk composition is not content-stable across file-set changes", func(s *settings) bool { return s.Memo && s.shape == manyFiles }},
	{"Memo", "ChunkBytes 0", "a single file's content-defined chunk sizes derive from ChunkBytes", func(s *settings) bool { return s.Memo && s.ChunkBytes == 0 && s.shape == oneFile }},
	{"FilesPerChunk", "ChunkBytes", "a multi-file input is cut by file count or by bytes, not both", func(s *settings) bool {
		return !s.whole && s.shape == manyFiles && s.FilesPerChunk != 0 && s.ChunkBytes != 0
	}},
	{"AdaptiveChunks", "a multi-file input", "files lie end to end, so a file whose last record lacks a newline fuses with the next file's first when both share a chunk, and a cut resized by timing would let that change the output", func(s *settings) bool { return !s.whole && s.shape == manyFiles && s.AdaptiveChunks }},
	{"FilesPerChunk", "a single-file input", "it groups the files of a multi-file input", func(s *settings) bool { return !s.whole && s.shape == oneFile && s.FilesPerChunk != 0 }},
}

// Validate reports the first mode rule the configuration breaks. The
// rules on the input's shape wait for the stream builders, which know it.
func (c Config) Validate() error {
	_, _, err := c.resolve(anyInput)
	return err
}

// resolve refuses c by the first rule it breaks, then applies the
// RuntimeTraditional preset, as the one reader of c.Runtime: it returns
// the settings the run uses (Merge always set; under the preset the
// chunk-shape knobs set aside) and whether the input is read whole.
func (c Config) resolve(shape inputShape) (Config, bool, error) {
	s := &settings{Config: c, whole: c.Runtime == RuntimeTraditional, shape: shape}
	for _, r := range modeRules {
		if r.clash(s) {
			return c, false, &ConfigError{Knob: r.knob, With: r.with, Reason: r.why}
		}
	}
	merge := MergePWay
	if s.whole {
		c.ChunkBytes, c.FilesPerChunk, c.AdaptiveChunks, c.IOLanes, c.PrefetchDepth = 0, 0, false, 0, 0
		merge = MergePairwise
	}
	if c.Merge == nil {
		c.Merge = &merge
	}
	return c, s.whole, nil
}
