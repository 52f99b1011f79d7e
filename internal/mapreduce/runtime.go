// Package mapreduce forwards to internal/core's phase primitives for
// bench/, its one importer.
package mapreduce

import (
	"supmr/internal/container"
	"supmr/internal/core"
	"supmr/internal/kv"
)

// Options is core.Options; Pool is required.
type Options = core.Options

// MapWave is core.MapWave without the busy time.
func MapWave[K comparable, V any](app kv.App[K, V], data []byte, cont container.Container[K, V], opts Options) (int, error) {
	n, _, err := core.MapWave(app, data, cont, opts)
	return n, err
}

// ReducePhase is core.ReducePhase without the busy time.
func ReducePhase[K comparable, V any](app kv.App[K, V], cont container.Container[K, V], opts Options) ([][]kv.Pair[K, V], error) {
	runs, _, err := core.ReducePhase(app, cont, opts)
	return runs, err
}
