package core

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/spatialmf/smfl/internal/kmeans"
	"github.com/spatialmf/smfl/internal/mat"
)

// generateLandmarks produces the K×L landmark matrix C from the spatial
// information block si according to the configured source. The paper's
// method is K-means centers (Section III-A); the alternatives exist for the
// landmark-source ablation (DESIGN.md A3).
func generateLandmarks(si *mat.Dense, cfg Config) (*mat.Dense, error) {
	n, l := si.Dims()
	switch cfg.LandmarkSource {
	case KMeansCenters:
		res, err := kmeans.Run(si, kmeans.Config{
			K:        cfg.K,
			MaxIter:  kmeansMaxIter,
			Seed:     cfg.Seed,
			Restarts: kmeansRestarts,
		})
		if err != nil {
			return nil, fmt.Errorf("core: landmark clustering: %w", err)
		}
		return res.Centers, nil

	case RandomObservations:
		rng := rand.New(rand.NewSource(cfg.Seed))
		c := mat.NewDense(cfg.K, l)
		for k := 0; k < cfg.K; k++ {
			copy(c.Row(k), si.Row(rng.Intn(n)))
		}
		return c, nil

	case UniformGrid:
		return gridLandmarks(si, cfg.K)

	default:
		return nil, fmt.Errorf("core: unknown landmark source %d", cfg.LandmarkSource)
	}
}

// gridLandmarks lays K points on a near-square grid over the bounding box of
// the first two SI dimensions (extra dimensions get the column midpoint).
func gridLandmarks(si *mat.Dense, k int) (*mat.Dense, error) {
	n, l := si.Dims()
	if n == 0 {
		return nil, fmt.Errorf("core: grid landmarks need data")
	}
	lo := make([]float64, l)
	hi := make([]float64, l)
	for j := 0; j < l; j++ {
		lo[j], hi[j] = math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			v := si.At(i, j)
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	c := mat.NewDense(k, l)
	cols := int(math.Ceil(math.Sqrt(float64(k))))
	rows := (k + cols - 1) / cols
	for i := 0; i < k; i++ {
		gx, gy := i%cols, i/cols
		fx, fy := 0.5, 0.5
		if cols > 1 {
			fx = float64(gx) / float64(cols-1)
		}
		if rows > 1 {
			fy = float64(gy) / float64(rows-1)
		}
		c.Set(i, 0, lo[0]+fx*(hi[0]-lo[0]))
		if l > 1 {
			c.Set(i, 1, lo[1]+fy*(hi[1]-lo[1]))
		}
		for j := 2; j < l; j++ {
			c.Set(i, j, (lo[j]+hi[j])/2)
		}
	}
	return c, nil
}

// injectLandmarks writes C into the first L columns of V (Formula 9).
func injectLandmarks(v, c *mat.Dense) {
	k, l := c.Dims()
	for i := 0; i < k; i++ {
		ci := c.Row(i)
		vi := v.Row(i)
		copy(vi[:l], ci)
	}
}
