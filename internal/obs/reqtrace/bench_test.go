package reqtrace

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// BenchmarkStageClock is the stage clock's cost per request: Begin,
// four Marks and End on a recorder whose histograms are registered, as
// every served request pays it.
func BenchmarkStageClock(b *testing.B) {
	r := NewRecorder(Config{Registry: obs.NewRegistry(), Threshold: -time.Nanosecond})
	m := Meta{Kind: "read", Status: "ok", OK: true, Var: 0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := r.Begin()
		q.Mark(StageAdmission)
		q.Mark(StageFrontierWait)
		q.Mark(StageApply)
		q.Mark(StageRespond)
		r.End(q, m)
	}
}
