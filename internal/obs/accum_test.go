package obs

import (
	"sync"
	"testing"
	"time"
)

func TestAccumFlushMergesIntoRecorder(t *testing.T) {
	rec := NewRecorder()
	acc := rec.NewAccum()
	for i := 0; i < 3; i++ {
		span := acc.Start("stage")
		time.Sleep(time.Millisecond)
		span.End()
	}
	acc.CS().ISOMIT.DPCells += 5
	if got := rec.CounterSetSnapshot(); got != nil {
		t.Fatalf("counters visible before Flush: %+v", got)
	}
	acc.Flush()
	stats := rec.Stages()
	if stats["stage"].Count != 3 {
		t.Errorf("stage count = %d, want 3", stats["stage"].Count)
	}
	if stats["stage"].Total <= 0 || stats["stage"].Max <= 0 {
		t.Errorf("stage totals not accumulated: %+v", stats["stage"])
	}
	if got := rec.CounterSetSnapshot().ISOMIT.DPCells; got != 5 {
		t.Errorf("dp cells = %d, want 5", got)
	}
	// Flush clears the batch: a second flush must not double-count.
	acc.Flush()
	if got := rec.Stages()["stage"].Count; got != 3 {
		t.Errorf("double flush changed count to %d", got)
	}
}

func TestAccumNilRecorder(t *testing.T) {
	var rec *Recorder
	acc := rec.NewAccum() // nil
	span := acc.Start("stage")
	span.End()
	if acc.CS() != nil {
		t.Fatal("nil Accum must hand out a nil CounterSet")
	}
	acc.Flush() // all no-ops; must not panic
}

func TestRecorderConcurrentCounters(t *testing.T) {
	rec := NewRecorder()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rec.MergeCounterSet(&CounterSet{Cascade: CascadeCounters{Trees: 1}})
				rec.observe("stage", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := rec.CounterSetSnapshot().Cascade.Trees; got != workers*perWorker {
		t.Errorf("trees = %d, want %d", got, workers*perWorker)
	}
	if got := rec.Stages()["stage"].Count; got != workers*perWorker {
		t.Errorf("stage count = %d, want %d", got, workers*perWorker)
	}
}
