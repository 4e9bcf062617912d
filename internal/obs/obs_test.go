package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestRecorderStagesAndCounters(t *testing.T) {
	r := NewRecorder()
	sp := r.Start(StageTreeDP)
	time.Sleep(time.Millisecond)
	sp.End()
	r.observe(StageTreeDP, 2*time.Millisecond)
	r.MergeCounterSet(&CounterSet{Cascade: CascadeCounters{Trees: 3}})
	r.MergeCounterSet(&CounterSet{Cascade: CascadeCounters{Trees: 2}})

	st := r.Stages()[StageTreeDP]
	if st.Count != 2 {
		t.Fatalf("stage count = %d, want 2", st.Count)
	}
	if st.Total <= 0 || st.Max <= 0 || st.Max > st.Total {
		t.Fatalf("implausible aggregates: total=%v max=%v", st.Total, st.Max)
	}
	if ms := r.StageMillis()[StageTreeDP]; ms <= 0 {
		t.Fatalf("StageMillis = %g, want > 0", ms)
	}
	if got := r.CounterSetSnapshot().Cascade.Trees; got != 5 {
		t.Fatalf("trees = %d, want 5", got)
	}
}

func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	sp := r.Start(StageTreeDP) // must not panic
	sp.End()
	r.MergeCounterSet(&CounterSet{Cascade: CascadeCounters{Trees: 1}})
	if r.Stages() != nil || r.CounterSetSnapshot() != nil || r.StageMillis() != nil {
		t.Fatal("nil recorder must return nil views")
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if RecorderFrom(ctx) != nil {
		t.Fatal("empty context must carry no recorder")
	}
	sp := Stage(ctx, StageTreeDP) // no recorder: still safe
	sp.End()

	rec := NewRecorder()
	ctx = WithRecorder(ctx, rec)
	if RecorderFrom(ctx) != rec {
		t.Fatal("recorder not recovered from context")
	}
	sp = Stage(ctx, StageComponents)
	sp.End()
	if rec.Stages()[StageComponents].Count != 1 {
		t.Fatal("span via context not recorded")
	}
}

func TestTraceID(t *testing.T) {
	ctx := context.Background()
	if TraceID(ctx) != "" {
		t.Fatal("empty context must carry no trace ID")
	}
	ctx = WithTraceID(ctx, "abc123")
	if got := TraceID(ctx); got != "abc123" {
		t.Fatalf("TraceID = %q", got)
	}
}

// TestConcurrentRecording exercises one Recorder from many goroutines —
// the serving layer records stages from pooled workers while /metrics
// snapshots stages. Run under -race (the CI race matrix includes obs).
func TestConcurrentRecording(t *testing.T) {
	rec := NewRecorder()
	ctx := WithRecorder(context.Background(), rec)
	const goroutines = 16
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := RecorderFrom(ctx)
			for i := 0; i < iters; i++ {
				sp := r.Start(StageTreeDP)
				r.MergeCounterSet(&CounterSet{ISOMIT: ISOMITCounters{DPCells: 2}})
				sp.End()
				if i%10 == 0 {
					// Concurrent readers must not race the writers.
					_ = r.Stages()
					_ = r.CounterSetSnapshot()
					_ = r.StageMillis()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := rec.Stages()[StageTreeDP].Count; got != goroutines*iters {
		t.Fatalf("span count = %d, want %d", got, goroutines*iters)
	}
	if got := rec.CounterSetSnapshot().ISOMIT.DPCells; got != 2*goroutines*iters {
		t.Fatalf("dp cells = %d, want %d", got, 2*goroutines*iters)
	}
}

func BenchmarkSpanNoRecorder(b *testing.B) {
	ctx := context.Background()
	rec := RecorderFrom(ctx)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := rec.Start(StageTreeDP)
		sp.End()
	}
}

func BenchmarkSpanWithRecorder(b *testing.B) {
	rec := NewRecorder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := rec.Start(StageTreeDP)
		sp.End()
	}
}
