// Package geo handles real-world latitude/longitude spatial information.
// The paper's datasets carry raw degrees (Table I: 45.31° N, 130.93° E);
// Euclidean distance on raw degrees distorts east–west distances by
// cos(latitude). This package provides haversine great-circle distances and
// a local equirectangular projection that maps (lat, lon) to kilometers, so
// the KD-tree/p-NN graph and K-means landmarks operate in a metric space.
package geo

import (
	"errors"
	"math"

	"github.com/spatialmf/smfl/internal/mat"
)

// EarthRadiusKm is the mean Earth radius.
const EarthRadiusKm = 6371.0088

// Haversine returns the great-circle distance in kilometers between two
// (latitude, longitude) points given in degrees.
func Haversine(lat1, lon1, lat2, lon2 float64) float64 {
	const d = math.Pi / 180
	phi1, phi2 := lat1*d, lat2*d
	dPhi := (lat2 - lat1) * d
	dLam := (lon2 - lon1) * d
	a := math.Sin(dPhi/2)*math.Sin(dPhi/2) +
		math.Cos(phi1)*math.Cos(phi2)*math.Sin(dLam/2)*math.Sin(dLam/2)
	return 2 * EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(a)))
}

// Projection is a local equirectangular map anchored at a reference point:
// x = R·Δlon·cos(lat₀), y = R·Δlat (both in kilometers). Accurate to well
// under 1 % for the city-to-province extents of the paper's datasets.
type Projection struct {
	Lat0, Lon0 float64 // anchor in degrees
	cosLat0    float64
}

// NewProjection anchors a projection at (lat0, lon0) degrees.
func NewProjection(lat0, lon0 float64) (*Projection, error) {
	if lat0 < -90 || lat0 > 90 || lon0 < -180 || lon0 > 180 {
		return nil, errors.New("geo: anchor out of range")
	}
	return &Projection{Lat0: lat0, Lon0: lon0, cosLat0: math.Cos(lat0 * math.Pi / 180)}, nil
}

// Forward maps (lat, lon) degrees to local (x, y) kilometers.
func (p *Projection) Forward(lat, lon float64) (x, y float64) {
	const d = math.Pi / 180
	x = EarthRadiusKm * (lon - p.Lon0) * d * p.cosLat0
	y = EarthRadiusKm * (lat - p.Lat0) * d
	return x, y
}

// ProjectSI replaces the first two columns of x — interpreted as latitude
// and longitude in degrees — with local kilometers, anchored at the centroid
// of the observed coordinates, and returns the projection. omega may be nil
// (fully observed); hidden SI cells are left untouched.
func ProjectSI(x *mat.Dense, omega *mat.Mask) (*Projection, error) {
	n, m := x.Dims()
	if m < 2 {
		return nil, errors.New("geo: need at least 2 columns (lat, lon)")
	}
	var latSum, lonSum float64
	var cnt int
	for i := 0; i < n; i++ {
		if omega != nil && (!omega.Observed(i, 0) || !omega.Observed(i, 1)) {
			continue
		}
		lat, lon := x.At(i, 0), x.At(i, 1)
		if lat < -90 || lat > 90 || lon < -180 || lon > 180 {
			return nil, errors.New("geo: coordinate out of range; are columns 0,1 really lat,lon degrees?")
		}
		latSum += lat
		lonSum += lon
		cnt++
	}
	if cnt == 0 {
		return nil, errors.New("geo: no observed coordinates")
	}
	proj, err := NewProjection(latSum/float64(cnt), lonSum/float64(cnt))
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if omega != nil && (!omega.Observed(i, 0) || !omega.Observed(i, 1)) {
			continue
		}
		px, py := proj.Forward(x.At(i, 0), x.At(i, 1))
		x.Set(i, 0, px)
		x.Set(i, 1, py)
	}
	return proj, nil
}
