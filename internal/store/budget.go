package store

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseMemBudget parses a human-friendly byte budget for the -mem-budget
// flag: a plain integer is bytes, and the suffixes KiB/MiB/GiB (or their K/M/G
// shorthands) scale by binary powers. Examples: "67108864", "64MiB", "2G".
func ParseMemBudget(s string) (int64, error) {
	t := strings.TrimSpace(s)
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{
		{"KiB", 1 << 10}, {"MiB", 1 << 20}, {"GiB", 1 << 30},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30},
	} {
		if strings.HasSuffix(t, u.suffix) {
			t = strings.TrimSuffix(t, u.suffix)
			mult = u.mult
			break
		}
	}
	v, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || v <= 0 || v > math.MaxInt64/mult {
		return 0, fmt.Errorf("store: invalid memory budget %q (want e.g. 64MiB, 2G, or bytes)", s)
	}
	return v * mult, nil
}
