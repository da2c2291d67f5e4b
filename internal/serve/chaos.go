package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/spatialmf/smfl/internal/faultinject"
)

// ErrChaos tags every failure injected by an armed chaos config, so tests
// and logs can tell injected faults from real ones.
var ErrChaos = errors.New("serve: injected chaos fault")

// ChaosConfig sets the per-hit probabilities of each injected fault flavor.
// All probabilities are in [0, 1] and evaluated independently per fault
// point hit from one seed-deterministic stream, so a given seed always
// produces the same fault schedule.
type ChaosConfig struct {
	BatchErr   float64       // batch compute returns an error (its requests get 500s)
	BatchPanic float64       // batch compute panics (panic isolation must contain it)
	BatchDelay float64       // batch compute stalls (deadlines must bound it)
	DelayMax   time.Duration // upper bound of an injected stall
	LoadErr    float64       // registry load fails (previous version must survive)
	WriteAbort float64       // response write aborts the connection (no torn JSON)
}

// DefaultChaos is the schedule smfld -chaos-seed runs with: frequent
// enough that a few hundred requests exercise every failure path, rare
// enough that the server spends most of the run actually serving.
func DefaultChaos() ChaosConfig {
	return ChaosConfig{
		BatchErr:   0.10,
		BatchPanic: 0.05,
		BatchDelay: 0.10,
		DelayMax:   50 * time.Millisecond,
		LoadErr:    0.25,
		WriteAbort: 0.05,
	}
}

// ArmChaos arms seed-deterministic fault hooks at the serve-path fault
// points (batch compute, registry load, response write) and returns the
// disarm function. The fault stream depends only on seed and the order in
// which points are hit; faultinject hooks are process-global, so callers
// must disarm before arming a different schedule.
func ArmChaos(seed int64, cfg ChaosConfig) (disarm func()) {
	var mu sync.Mutex
	rng := faultinject.NewRand(seed)
	// roll draws under the mutex: hooks fire from concurrent request and
	// flush goroutines, and the splitmix64 stream is not goroutine-safe.
	roll := func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return rng.Float64()
	}
	delay := func() time.Duration {
		mu.Lock()
		defer mu.Unlock()
		if cfg.DelayMax <= 0 {
			return 0
		}
		return time.Duration(rng.Intn(int(cfg.DelayMax)))
	}
	faultinject.Enable(faultinject.ServeBatch, func(payload any) error {
		if roll() < cfg.BatchPanic {
			panic(fmt.Sprintf("%v: batch compute panic", ErrChaos))
		}
		if roll() < cfg.BatchDelay {
			time.Sleep(delay())
		}
		if roll() < cfg.BatchErr {
			return fmt.Errorf("%w: batch compute error", ErrChaos)
		}
		return nil
	})
	faultinject.Enable(faultinject.ServeRegistryLoad, func(payload any) error {
		if roll() < cfg.LoadErr {
			return fmt.Errorf("%w: registry load error", ErrChaos)
		}
		return nil
	})
	faultinject.Enable(faultinject.ServeWrite, func(payload any) error {
		if roll() < cfg.WriteAbort {
			return fmt.Errorf("%w: response write abort", ErrChaos)
		}
		return nil
	})
	return func() {
		faultinject.Disable(faultinject.ServeBatch)
		faultinject.Disable(faultinject.ServeRegistryLoad)
		faultinject.Disable(faultinject.ServeWrite)
	}
}
