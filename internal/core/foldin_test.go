package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"github.com/spatialmf/smfl/internal/dataset"
	"github.com/spatialmf/smfl/internal/faultinject"
	"github.com/spatialmf/smfl/internal/mat"
	"github.com/spatialmf/smfl/internal/metrics"
)

// foldInFixture fits SMFL on the first part of a dataset and returns the
// model plus a held-out tail in the same normalized units.
func foldInFixture(t *testing.T) (*Model, *mat.Dense) {
	t.Helper()
	res, err := dataset.Generate(dataset.Spec{
		Name: "fold", N: 300, M: 6, L: 2,
		Latents: 3, Bumps: 4, Clusters: 4, Noise: 0.02, Seed: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Data.Normalize(); err != nil {
		t.Fatal(err)
	}
	train := res.Data.X.Slice(0, 240, 0, 6)
	test := res.Data.X.Slice(240, 300, 0, 6)
	model, err := Fit(train, nil, 2, SMFL, Config{K: 5, Lambda: 0.1, MaxIter: 200, Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	return model, test
}

func TestFoldInShapesAndNonnegativity(t *testing.T) {
	model, test := foldInFixture(t)
	u, err := model.FoldIn(test, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r, c := u.Dims(); r != 60 || c != 5 {
		t.Fatalf("fold-in U shape %dx%d", r, c)
	}
	if mat.Min(u) < 0 {
		t.Fatal("fold-in violated nonnegativity")
	}
	if !u.IsFinite() {
		t.Fatal("fold-in produced non-finite coefficients")
	}
}

func TestCompleteRowsBeatsColumnMeans(t *testing.T) {
	model, test := foldInFixture(t)
	n, m := test.Dims()
	omega := mat.FullMask(n, m)
	for i := 0; i < n; i++ {
		for j := 2; j < m; j++ {
			if (i+j)%4 == 0 {
				omega.Hide(i, j)
			}
		}
	}
	out, err := model.CompleteRows(test, omega, 150)
	if err != nil {
		t.Fatal(err)
	}
	rms, err := metrics.RMSOverHidden(out, test, omega)
	if err != nil {
		t.Fatal(err)
	}
	// Column-mean floor over the test block.
	meanFill := test.Clone()
	if err := dataset.FillColumnMeans(meanFill, omega); err != nil {
		t.Fatal(err)
	}
	meanRMS, err := metrics.RMSOverHidden(meanFill, test, omega)
	if err != nil {
		t.Fatal(err)
	}
	if rms >= meanRMS {
		t.Fatalf("fold-in RMS %v not better than column means %v", rms, meanRMS)
	}
}

func TestCompleteRowsKeepsObserved(t *testing.T) {
	model, test := foldInFixture(t)
	n, m := test.Dims()
	omega := mat.FullMask(n, m)
	omega.Hide(3, 4)
	out, err := model.CompleteRows(test, omega, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if omega.Observed(i, j) && out.At(i, j) != test.At(i, j) {
				t.Fatalf("observed cell (%d,%d) changed", i, j)
			}
		}
	}
}

func TestFoldInValidation(t *testing.T) {
	model, test := foldInFixture(t)
	if _, err := model.FoldIn(mat.NewDense(2, 9), nil, 10); err == nil {
		t.Fatal("expected column mismatch error")
	}
	if _, err := model.FoldIn(mat.NewDense(0, 6), nil, 10); err == nil {
		t.Fatal("expected empty error")
	}
	neg := test.Clone()
	neg.Set(0, 0, -1)
	if _, err := model.FoldIn(neg, nil, 10); err == nil {
		t.Fatal("expected nonnegativity error")
	}
	if _, err := model.FoldIn(test, mat.FullMask(1, 6), 10); err == nil {
		t.Fatal("expected mask shape error")
	}
	// A row with no observed cell has nothing to fold in; answering it would
	// report the training minimum of every column as an imputation.
	blank := mat.FullMask(2, 6)
	for j := 0; j < 6; j++ {
		blank.Hide(1, j)
	}
	if _, err := model.FoldIn(test.Slice(0, 2, 0, 6), blank, 10); err == nil || !strings.Contains(err.Error(), "row 1 ") {
		t.Fatalf("FoldIn with an all-hidden row 1: got %v, want an error naming row 1", err)
	}
	if _, err := model.CompleteRows(test.Slice(0, 2, 0, 6), blank, 10); err == nil {
		t.Fatal("CompleteRows must refuse an all-hidden row")
	}
}

// TestFoldInConcurrent exercises the concurrency contract the serving layer
// relies on: many goroutines folding into one loaded Model concurrently must
// neither race (run under -race) nor diverge from the serial result.
func TestFoldInConcurrent(t *testing.T) {
	model, test := foldInFixture(t)
	n, m := test.Dims()
	omega := mat.FullMask(n, m)
	for i := 0; i < n; i++ {
		omega.Hide(i, 2+(i%(m-2)))
	}
	want, err := model.FoldIn(test, omega, 60)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	got := make([]*mat.Dense, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w], errs[w] = model.FoldIn(test, omega, 60)
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !mat.EqualApprox(got[w], want, 0) {
			t.Fatalf("worker %d diverged from the serial fold-in", w)
		}
	}
}

func TestFoldInReconstructsTrainingRows(t *testing.T) {
	// Folding the training rows themselves back in must reconstruct them
	// about as well as the fitted model does.
	model, _ := foldInFixture(t)
	res, err := dataset.Generate(dataset.Spec{
		Name: "fold", N: 300, M: 6, L: 2,
		Latents: 3, Bumps: 4, Clusters: 4, Noise: 0.02, Seed: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Data.Normalize(); err != nil {
		t.Fatal(err)
	}
	train := res.Data.X.Slice(0, 240, 0, 6)
	u, err := model.FoldIn(train, nil, 200)
	if err != nil {
		t.Fatal(err)
	}
	foldErr := mat.FrobNorm(mat.Sub(nil, mat.Mul(nil, u, model.V), train))
	fitErr := mat.FrobNorm(mat.Sub(nil, model.Predict(), train))
	if foldErr > 1.5*fitErr+1e-9 {
		t.Fatalf("fold-in reconstruction %v much worse than fit %v", foldErr, fitErr)
	}
}

// TestFoldInSingleRowMatchesBatchRow: row 0 of a batched fold-in follows
// exactly the same trajectory as a single-row fold-in (identical init draws,
// the same number of updates, updates that only touch u_i), so the two must
// agree bit-for-bit.
func TestFoldInSingleRowMatchesBatchRow(t *testing.T) {
	model, test := foldInFixture(t)
	n, m := test.Dims()
	omega := mat.FullMask(n, m)
	for i := 0; i < n; i++ {
		omega.Hide(i, 2+(i%(m-2)))
	}
	batch, err := model.FoldIn(test, omega, 200)
	if err != nil {
		t.Fatal(err)
	}
	row0 := test.Slice(0, 1, 0, m)
	omega0 := mat.NewMask(1, m)
	for j := 0; j < m; j++ {
		if omega.Observed(0, j) {
			omega0.Observe(0, j)
		}
	}
	single, err := model.FoldIn(row0, omega0, 200)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < model.Config.K; k++ {
		if single.At(0, k) != batch.At(0, k) {
			t.Fatalf("coefficient %d: single-row %v vs batch row 0 %v",
				k, single.At(0, k), batch.At(0, k))
		}
	}
}

// TestFoldInCancellation: a context cancelled mid-batch stops FoldIn at the
// next iteration boundary, returning the coefficients computed so far with an
// error wrapping ErrInterrupted.
func TestFoldInCancellation(t *testing.T) {
	defer faultinject.Reset()
	model, test := foldInFixture(t)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Enable(faultinject.FoldInIter, func(p any) error {
		if p.(*FoldInFault).Iter == 3 {
			cancel()
		}
		return nil
	})

	m := *model // shallow copy; Config is a value
	m.Config.Ctx = ctx
	u, err := m.FoldIn(test, nil, 100)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("got %v, want ErrInterrupted", err)
	}
	if u == nil {
		t.Fatal("cancelled FoldIn must return the partial coefficients")
	}
	if r, c := u.Dims(); r != test.Rows() || c != model.Config.K {
		t.Fatalf("partial coefficients are %dx%d", r, c)
	}

	// A pre-cancelled context stops before the first iteration.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	m.Config.Ctx = done
	if _, err := m.FoldIn(test, nil, 100); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("pre-cancelled context: got %v", err)
	}
}

// TestFoldInRunsEveryUpdate: every row gets all iters updates, even when
// each has converged after the first. A K = 1 NMF model's single
// coefficient reaches its minimizer in one multiplicative update, so a
// convergence test would end the batch after two iterations; FoldInIter
// must instead fire iters times.
func TestFoldInRunsEveryUpdate(t *testing.T) {
	defer faultinject.Reset()
	_, test := foldInFixture(t)
	nmf, err := Fit(test, nil, 2, NMF, Config{K: 1, MaxIter: 50, Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	var fired int
	faultinject.Enable(faultinject.FoldInIter, func(any) error {
		fired++
		return nil
	})
	if _, err := nmf.FoldIn(test.Slice(0, 8, 0, 6), nil, 50); err != nil {
		t.Fatal(err)
	}
	if fired != 50 {
		t.Fatalf("FoldInIter fired %d times, want one per update (50)", fired)
	}
}
