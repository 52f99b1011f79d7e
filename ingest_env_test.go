package supmr

// The striped-ingest CI gate reruns the chaos and differential suites
// with the multi-lane ingest path switched on (SUPMR_IO_LANES /
// SUPMR_PREFETCH_DEPTH): the suites' byte-identical-output and
// determinism invariants must hold at any lane count or read-ahead depth,
// because neither may change what is read — only when.

import (
	"fmt"
	"os"
	"strconv"
)

// applyIngestEnv overlays SUPMR_IO_LANES / SUPMR_PREFETCH_DEPTH onto
// cfg so ci.sh can drive the whole chaos/differential matrix through
// the multi-lane ingest path without duplicating the suites. Unset
// variables leave cfg at the suite's defaults.
func applyIngestEnv(cfg Config) Config {
	cfg.IOLanes = ingestEnvCount("SUPMR_IO_LANES", cfg.IOLanes)
	cfg.PrefetchDepth = ingestEnvCount("SUPMR_PREFETCH_DEPTH", cfg.PrefetchDepth)
	return cfg
}

func ingestEnvCount(name string, def int) int {
	v := os.Getenv(name)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		panic(fmt.Sprintf("%s must be a positive integer, got %q", name, v))
	}
	return n
}
