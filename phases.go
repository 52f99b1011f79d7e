package supmr

import (
	"time"

	"supmr/internal/apps"
	"supmr/internal/exec"
	"supmr/internal/metrics"
	"supmr/internal/storage"
	"supmr/internal/workload"
)

// Phase identifies one job phase in a Report's Times.
type Phase = metrics.Phase

// Job phases (the columns of the paper's Table II).
const (
	PhaseRead    = metrics.PhaseRead
	PhaseMap     = metrics.PhaseMap
	PhaseReadMap = metrics.PhaseReadMap // fused ingest/map of the SupMR pipeline
	PhaseReduce  = metrics.PhaseReduce
	PhaseMerge   = metrics.PhaseMerge
	PhaseEgress  = metrics.PhaseEgress // parallel output materialization (Config.EgressLanes)
)

// PhaseTimes holds per-phase wall-clock durations.
type PhaseTimes = metrics.PhaseTimes

// UtilTrace is a collectl-style utilization time series.
type UtilTrace = metrics.Trace

// TraceMarker annotates a phase boundary on a trace.
type TraceMarker = metrics.Marker

// PowerModel estimates energy from a utilization trace (§VI-C's
// energy-consumption discussion made quantitative).
type PowerModel = metrics.PowerModel

// EnergyReport is an integrated energy estimate.
type EnergyReport = metrics.EnergyReport

// DefaultPowerModel approximates the paper's dual-Xeon testbed.
func DefaultPowerModel() PowerModel { return metrics.DefaultPowerModel() }

// Energy integrates the default power model over a report's trace. The
// report must have been produced with TraceContexts set.
func Energy(trace *UtilTrace, contexts int) EnergyReport {
	return metrics.DefaultPowerModel().Energy(trace, contexts)
}

// OpenMPSortResult is the outcome of the thread-library sort baseline.
type OpenMPSortResult = apps.OpenMPSortResult

// OpenMPSortFile runs the Fig. 3 baseline — sequential ingest,
// single-threaded parse, parallel p-way sort — over file. It is NOT a
// MapReduce job; it exists to reproduce the comparison that motivates
// keeping the MapReduce model on scale-up (§II, Fig. 3).
func OpenMPSortFile(file Input, workers int, clock Clock) (*OpenMPSortResult, error) {
	res, _, err := OpenMPSortFileTraced(file, workers, 1, 0, clock)
	return res, err
}

// OpenMPSortFileTraced is OpenMPSortFile with its utilization trace,
// built from the task spans of the sort's pool.
func OpenMPSortFileTraced(file Input, workers, contexts int, bucket time.Duration, clock Clock) (*OpenMPSortResult, *UtilTrace, error) {
	if clock == nil {
		clock = storage.NewRealClock()
	}
	stream, err := StreamFile(file, Config{Boundary: CRLFRecords})
	if err != nil {
		return nil, nil, err
	}
	pool := exec.NewPool(nil, exec.Config{Workers: workers, Now: clock.Now})
	defer pool.Close()
	from := pool.Record().Mark()
	res, err := apps.OpenMPSort(stream, pool)
	if err != nil {
		return nil, nil, err
	}
	if bucket <= 0 {
		bucket = 100 * time.Millisecond
	}
	return res, metrics.BuildTrace(pool.Record().Spans(from), contexts, bucket, from.At, from.At+res.Times.Total), nil
}

// SortCheck is a valsort-style summary of a sorted output.
type SortCheck = workload.SortChecksum

// ValidateSortedPairs verifies a job's output ordering and computes an
// order-independent key checksum, so two runs (e.g. baseline vs SupMR)
// can be compared without holding both outputs.
func ValidateSortedPairs[V any](pairs []Pair[string, V]) SortCheck {
	i := 0
	return workload.ValidateSorted(func() (string, bool) {
		if i >= len(pairs) {
			return "", false
		}
		k := pairs[i].Key
		i++
		return k, true
	})
}
