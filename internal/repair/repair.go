// Package repair implements the data-repair task of Section IV-B2: given a
// table with erroneous cells and a dirty-cell mask Ψ (supplied by an error
// detector, e.g. Raha in the paper), each Repairer replaces the dirty values
// and is scored by RMS against the ground truth.
//
// The paper's comparators HoloClean [36] and Baran [32] are large systems
// with external dependencies; DESIGN.md §2 documents the stand-ins built
// here: StatRepair reproduces HoloClean's statistical-signals-only mode
// (per-cell posterior over a discretized domain from column co-occurrence),
// and ContextRepair reproduces Baran's value/vicinity/domain corrector
// ensemble with its 20-label budget.
package repair

import (
	"errors"
	"fmt"

	"github.com/spatialmf/smfl/internal/core"
	"github.com/spatialmf/smfl/internal/mat"
)

// Repairer fixes the cells marked dirty (observed bits of dirty = Ψ).
// Implementations must not modify x and must leave clean cells untouched.
type Repairer interface {
	Name() string
	Repair(x *mat.Dense, dirty *mat.Mask, l int) (*mat.Dense, error)
}

// MFRepair adapts the core NMF/SMF/SMFL family to the Repairer interface:
// the model is trained on the clean complement of Ψ and dirty cells take the
// reconstruction (Formula 8).
type MFRepair struct {
	Method core.Method
	Cfg    core.Config
}

// Name implements Repairer.
func (m *MFRepair) Name() string { return m.Method.String() }

// Repair implements Repairer.
func (m *MFRepair) Repair(x *mat.Dense, dirty *mat.Mask, l int) (*mat.Dense, error) {
	out, _, err := core.Repair(x, dirty, l, m.Method, m.Cfg)
	return out, err
}

func checkInput(x *mat.Dense, dirty *mat.Mask) error {
	n, m := x.Dims()
	if n == 0 || m == 0 {
		return errors.New("repair: empty matrix")
	}
	dr, dc := dirty.Dims()
	if dr != n || dc != m {
		return fmt.Errorf("repair: dirty mask %dx%d vs data %dx%d", dr, dc, n, m)
	}
	return nil
}

// PaperRepairers returns the Table VI lineup in paper column order.
func PaperRepairers(seed int64, cfg core.Config) []Repairer {
	cfg.Seed = seed
	return []Repairer{
		&ContextRepair{Seed: seed}, // Baran stand-in
		&StatRepair{},              // HoloClean stand-in
		&MFRepair{Method: core.NMF, Cfg: cfg},
		&MFRepair{Method: core.SMF, Cfg: cfg},
		&MFRepair{Method: core.SMFL, Cfg: cfg},
	}
}
