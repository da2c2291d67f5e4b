package core

import (
	"sync"
	"testing"

	"github.com/spatialmf/smfl/internal/mat"
)

// TestFitConcurrentSharedPool runs two whole Fit calls concurrently through
// the shared mat worker pool. Under -race this audits that the pooled
// kernels share no mutable state across callers; the equality check audits
// that the chunk partition keeps results deterministic regardless of which
// goroutine executes a chunk.
func TestFitConcurrentSharedPool(t *testing.T) {
	x, mask, l := testProblem(t, 80, 3)
	cfg := Config{K: 5, Lambda: 0.1, P: 3, MaxIter: 40, Seed: 7}

	want, err := Fit(x, mask, l, SMFL, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const fits = 2
	models := make([]*Model, fits)
	errs := make([]error, fits)
	var wg sync.WaitGroup
	for w := 0; w < fits; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			models[w], errs[w] = Fit(x, mask, l, SMFL, cfg)
		}(w)
	}
	wg.Wait()
	for w := 0; w < fits; w++ {
		if errs[w] != nil {
			t.Fatalf("concurrent fit %d: %v", w, errs[w])
		}
		if !mat.EqualApprox(models[w].U, want.U, 0) || !mat.EqualApprox(models[w].V, want.V, 0) {
			t.Fatalf("concurrent fit %d diverged from the serial fit", w)
		}
	}
}
