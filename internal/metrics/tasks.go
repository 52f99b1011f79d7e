package metrics

import "time"

// TaskStats aggregates executor task instrumentation for one phase
// label: how many tasks ran, how long they sat queued before a worker
// picked them up, and how long workers were busy executing them. A
// job's internal/exec.Record folds its task calls into one TaskStats per
// label so scheduling overhead is observable alongside the utilization
// traces.
type TaskStats struct {
	Tasks     int
	QueueWait time.Duration
	Busy      time.Duration
}

// Add folds o into s.
func (s *TaskStats) Add(o TaskStats) {
	s.Tasks += o.Tasks
	s.QueueWait += o.QueueWait
	s.Busy += o.Busy
}
