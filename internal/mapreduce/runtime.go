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

// MapWave is core.MapWave.
func MapWave[K comparable, V any](app kv.App[K, V], data []byte, cont container.Container[K, V], opts Options) (int, error) {
	return core.MapWave(app, data, cont, opts)
}

// ReducePhase is core.ReducePhase.
func ReducePhase[K comparable, V any](app kv.App[K, V], cont container.Container[K, V], opts Options) ([][]kv.Pair[K, V], error) {
	return core.ReducePhase(app, cont, opts)
}
