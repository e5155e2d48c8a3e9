package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"stfm/internal/dram"
)

// fingerprintSkip lists Config fields excluded from Fingerprint: the
// process-local attachments (Streams, Telemetry) and the knobs that are
// proven not to change a run's Result — DenseTick, WatchdogCycles, and
// CheckInvariants only alter how the schedule is stepped and observed,
// and the equivalence tests pin the schedules bit-identical. Excluding
// them lets a checked or densely-ticked run share a cache entry with
// the plain run it is guaranteed to match.
//
// Protocol is skipped here only to be encoded explicitly by
// Fingerprint itself: the empty value and DDR2 (bit-identical
// configurations, since the DDR2 pack IS the default timing/geometry)
// must share the historical digest, while every other protocol gets
// its own. ForkAtCycle and WarmupPolicy follow the same pattern: a
// disabled fork (ForkAtCycle == 0) is bit-identical to a plain run and
// must share its digest, while an active fork — which really does
// change the schedule — is encoded explicitly with the warm-up kind
// resolved to its FR-FCFS default.
var fingerprintSkip = map[string]bool{
	"Streams":         true,
	"Telemetry":       true,
	"DenseTick":       true,
	"WatchdogCycles":  true,
	"CheckInvariants": true,
	"Protocol":        true,
	"ForkAtCycle":     true,
	"WarmupPolicy":    true,
}

// Fingerprint returns a canonical, field-order-independent SHA-256 hash
// of the configuration, as lowercase hex. Two Configs have equal
// fingerprints exactly when every result-determining field is equal, so
// the value is usable as a content-addressed cache key for completed
// Results (the stfm-server combines it with the workload's benchmark
// names — trace generation is deterministic given profile, geometry,
// core index, and Seed, so (Fingerprint, names) identifies the full
// input). The encoding walks fields in sorted-name order recursively,
// which makes the hash independent of declaration order; TestFingerprint
// pins the digest of DefaultConfig so cache keys cannot silently change
// across refactors. Configs with external Streams attached are not
// content-addressed (the stream bytes are not hashed); see
// fingerprintSkip for the other exclusions.
func (cfg Config) Fingerprint() string {
	var b strings.Builder
	// Protocol is encoded only when it selects a non-baseline pack:
	// empty and DDR2 produce identical simulations (NewSystem seeds the
	// same timing and geometry either way), so both hash to the
	// pre-protocol digest and keep old cache entries addressable.
	if cfg.Protocol != "" && cfg.Protocol != dram.DDR2 {
		fmt.Fprintf(&b, "Protocol=%q\n", cfg.Protocol)
	}
	// Fork mode is encoded only when active; the warm-up kind is
	// resolved so explicit FR-FCFS and the empty default share a digest.
	if cfg.ForkAtCycle > 0 {
		fmt.Fprintf(&b, "ForkAtCycle=%d\nWarmupPolicy=%q\n", cfg.ForkAtCycle, cfg.warmupKind())
	}
	writeCanonical(&b, "", reflect.ValueOf(cfg), fingerprintSkip)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// writeCanonical renders v as sorted "path=value" lines. It panics on
// field kinds it has no canonical form for (funcs, channels, maps with
// unsorted keys, ...), so adding such a field to Config fails the
// fingerprint tests instead of silently producing unstable keys.
func writeCanonical(b *strings.Builder, path string, v reflect.Value, skip map[string]bool) {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		names := make([]string, 0, t.NumField())
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() || skip[f.Name] {
				continue
			}
			names = append(names, f.Name)
		}
		sort.Strings(names)
		for _, n := range names {
			sub := n
			if path != "" {
				sub = path + "." + n
			}
			writeCanonical(b, sub, v.FieldByName(n), nil)
		}
	case reflect.Pointer:
		if v.IsNil() {
			fmt.Fprintf(b, "%s=nil\n", path)
			return
		}
		writeCanonical(b, path, v.Elem(), nil)
	case reflect.Slice:
		if v.IsNil() {
			fmt.Fprintf(b, "%s=nil\n", path)
			return
		}
		fmt.Fprintf(b, "%s.len=%d\n", path, v.Len())
		for i := 0; i < v.Len(); i++ {
			writeCanonical(b, fmt.Sprintf("%s[%d]", path, i), v.Index(i), nil)
		}
	case reflect.String:
		fmt.Fprintf(b, "%s=%q\n", path, v.String())
	case reflect.Bool:
		fmt.Fprintf(b, "%s=%t\n", path, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(b, "%s=%d\n", path, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fmt.Fprintf(b, "%s=%d\n", path, v.Uint())
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(b, "%s=%s\n", path, strconv.FormatFloat(v.Float(), 'g', -1, 64))
	default:
		panic(fmt.Sprintf("sim: Fingerprint has no canonical encoding for %s (kind %s); extend writeCanonical or add the field to fingerprintSkip", path, v.Kind()))
	}
}
