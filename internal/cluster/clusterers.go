package cluster

import (
	"errors"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/kmeans"
	"github.com/spatialmf/smfl/internal/linalg"
	"github.com/spatialmf/smfl/internal/mat"
)

// Clusterer produces K cluster labels from a (possibly incomplete) table.
type Clusterer interface {
	Name() string
	Cluster(x *mat.Dense, omega *mat.Mask, l, k int) ([]int, error)
}

// MFClusterer implements the paper's MF-based clustering application
// (Section IV-B4): "first impute the missing values and then perform
// clustering" — the NMF/SMF/SMFL model completes the table and k-means runs
// on the completed rows, so better imputation directly yields better
// clusters.
type MFClusterer struct {
	Method core.Method
	Cfg    core.Config
}

// Name implements Clusterer.
func (c *MFClusterer) Name() string { return c.Method.String() }

// Cluster implements Clusterer.
func (c *MFClusterer) Cluster(x *mat.Dense, omega *mat.Mask, l, k int) ([]int, error) {
	cfg := c.Cfg
	if cfg.K == 0 {
		cfg.K = k
	}
	xhat, _, err := core.Impute(x, omega, l, c.Method, cfg)
	if err != nil {
		return nil, err
	}
	res, err := kmeans.Run(xhat, kmeans.Config{K: k, Seed: cfg.Seed, Restarts: 3})
	if err != nil {
		return nil, err
	}
	return res.Labels, nil
}

// PCAClusterer is the PCA [44] baseline of Fig. 4b: column-mean impute,
// project to the top min(k, M) components, k-means on the scores.
type PCAClusterer struct {
	Seed int64
}

// Name implements Clusterer.
func (c *PCAClusterer) Name() string { return "PCA" }

// Cluster implements Clusterer.
func (c *PCAClusterer) Cluster(x *mat.Dense, omega *mat.Mask, _ /*l*/, k int) ([]int, error) {
	if k < 1 {
		return nil, errors.New("cluster: k must be positive")
	}
	filled := x.Clone()
	if omega != nil {
		n, m := x.Dims()
		for j := 0; j < m; j++ {
			var sum float64
			var cnt int
			for i := 0; i < n; i++ {
				if omega.Observed(i, j) {
					sum += x.At(i, j)
					cnt++
				}
			}
			if cnt == 0 {
				return nil, errors.New("cluster: column with no observed entries")
			}
			mean := sum / float64(cnt)
			for i := 0; i < n; i++ {
				if !omega.Observed(i, j) {
					filled.Set(i, j, mean)
				}
			}
		}
	}
	_, m := x.Dims()
	scores, err := linalg.PCA(filled, min(k, m))
	if err != nil {
		return nil, err
	}
	res, err := kmeans.Run(scores, kmeans.Config{K: k, Seed: c.Seed, Restarts: 3})
	if err != nil {
		return nil, err
	}
	return res.Labels, nil
}

// KMeansClusterer clusters the raw (mean-filled) rows directly.
type KMeansClusterer struct {
	Seed int64
}

// Name implements Clusterer.
func (c *KMeansClusterer) Name() string { return "KMeans" }

// Cluster implements Clusterer.
func (c *KMeansClusterer) Cluster(x *mat.Dense, omega *mat.Mask, _ /*l*/, k int) ([]int, error) {
	pca := &PCAClusterer{Seed: c.Seed}
	// Reuse PCA's fill logic with full dimensionality by clustering the
	// filled table itself.
	filled := x.Clone()
	if omega != nil {
		tmp, err := pca.fillMeans(x, omega)
		if err != nil {
			return nil, err
		}
		filled = tmp
	}
	res, err := kmeans.Run(filled, kmeans.Config{K: k, Seed: c.Seed, Restarts: 3})
	if err != nil {
		return nil, err
	}
	return res.Labels, nil
}

func (c *PCAClusterer) fillMeans(x *mat.Dense, omega *mat.Mask) (*mat.Dense, error) {
	filled := x.Clone()
	n, m := x.Dims()
	for j := 0; j < m; j++ {
		var sum float64
		var cnt int
		for i := 0; i < n; i++ {
			if omega.Observed(i, j) {
				sum += x.At(i, j)
				cnt++
			}
		}
		if cnt == 0 {
			return nil, errors.New("cluster: column with no observed entries")
		}
		mean := sum / float64(cnt)
		for i := 0; i < n; i++ {
			if !omega.Observed(i, j) {
				filled.Set(i, j, mean)
			}
		}
	}
	return filled, nil
}
