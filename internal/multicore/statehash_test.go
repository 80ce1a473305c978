package multicore_test

import (
	"math"
	"math/bits"
	"reflect"
	"sync"
	"unsafe"
)

// idleCounters are the fields an idle cycle may bump and a skip charges:
// a unit's state fingerprint leaves them out, the whole-machine one keeps
// them.
var idleCounters = map[string]bool{
	"pipeline.Stats.Cycles":              true,
	"pipeline.Stats.ROBOccupancySum":     true,
	"pipeline.Stats.RegionEndStalls":     true,
	"pipeline.Stats.PersistDrainWaits":   true,
	"pipeline.Stats.RenameNoRegStalls":   true,
	"pipeline.Stats.ROBFullStalls":       true,
	"pipeline.Stats.SQFullStalls":        true,
	"pipeline.Stats.LQFullStalls":        true,
	"pipeline.Stats.WBFullStalls":        true,
	"pipeline.Stats.RedoFullStalls":      true,
	"pipeline.Stats.LogFullStalls":       true,
	"pipeline.Stats.FrontendStalls":      true,
	"pipeline.Stats.SyncStalls":          true,
	"pipeline.Stats.FreeInt":             true,
	"pipeline.Stats.FreeFP":              true,
	"pipeline.Core.lastRegionStallCycle": true,
	"pipeline.Core.lastDrainWaitCycle":   true,
	"pipeline.Core.regionDrainWait":      true,
	"pipeline.Core.backendFull":          true, // points at a stall counter
	"rename.Renamer.RenameStalls":        true,
	"cache.Hierarchy.wbNext":             true,
	"nvm.Device.now":                     true,
	"nvm.Device.RejectedFull":            true,
	"persist.LogPath.Rejects":            true,
}

// loopFields are the advance loop's own working fields, which differ
// between a machine that skips and one stepped cycle by cycle without
// being state: both fingerprints leave them out.
var loopFields = map[string]bool{
	"multicore.System.idleMarks":  true,
	"multicore.System.quietUntil": true,
	"multicore.System.stepOrder":  true, // rewritten every cycle
}

// fingerprint hashes everything reachable from v by walking its fields
// with reflect, unexported ones included: scalars by value, pointers by
// what they point to, maps independently of iteration order. It does not
// descend into functions, channels, obs handles or values of a stop type
// (another unit, or a constant such as a program). With counters false it
// also skips the idle counters. Both skip the loop's own fields.
func fingerprint(v any, counters bool, stop ...reflect.Type) uint64 {
	w := &walker{counters: counters, seen: map[walkKey]bool{}, stop: map[reflect.Type]bool{}}
	for _, t := range stop {
		w.stop[t] = true
	}
	w.value(reflect.ValueOf(v))
	return w.sum
}

type walkKey struct {
	p uintptr
	t reflect.Type
}

type walker struct {
	sum      uint64
	counters bool
	seen     map[walkKey]bool
	stop     map[reflect.Type]bool
	// keep names fields the walk leaves out, such as resetKeeps.
	keep map[string]string
}

func (w *walker) mix(x uint64) {
	w.sum = bits.RotateLeft64(w.sum^x, 29) * 0x9E3779B97F4A7C15
}

func (w *walker) skipField(name string) bool {
	return loopFields[name] || !w.counters && idleCounters[name] || w.keep[name] != ""
}

func (w *walker) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			w.mix(1)
		} else {
			w.mix(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		w.mix(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		w.mix(v.Uint())
	case reflect.Float32, reflect.Float64:
		w.mix(math.Float64bits(v.Float()))
	case reflect.String:
		w.mix(uint64(v.Len()))
		for _, b := range []byte(v.String()) {
			w.mix(uint64(b))
		}
	case reflect.Array:
		w.elems(v, v.Len())
	case reflect.Slice:
		w.mix(uint64(v.Len()))
		w.elems(v, v.Len())
	case reflect.Map:
		w.mix(uint64(v.Len()))
		var sum uint64
		it := v.MapRange()
		for it.Next() {
			sub := &walker{counters: w.counters, seen: map[walkKey]bool{}, stop: w.stop, keep: w.keep}
			sub.value(it.Key())
			sub.value(it.Value())
			sum += sub.sum
		}
		w.mix(sum)
	case reflect.Pointer:
		if v.IsNil() || w.stop[v.Type()] || v.Type().Elem().PkgPath() == "ppa/internal/obs" {
			w.mix(0)
			return
		}
		k := walkKey{v.Pointer(), v.Type()}
		if w.seen[k] {
			w.mix(1)
			return
		}
		w.seen[k] = true
		w.value(v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			w.mix(0)
			return
		}
		w.value(v.Elem())
	case reflect.Struct:
		t := v.Type()
		if t.PkgPath() == "ppa/internal/obs" {
			return
		}
		for i := 0; i < t.NumField(); i++ {
			if w.skipField(t.String() + "." + t.Field(i).Name) {
				continue
			}
			w.value(v.Field(i))
		}
	}
}

// elems hashes n elements of an array or slice, reading plain-data
// elements field by field through unsafe instead of reflect.
func (w *walker) elems(v reflect.Value, n int) {
	if n == 0 {
		return
	}
	et := v.Type().Elem()
	if ls, ok := plainLeaves(et, w.counters); ok && v.Kind() == reflect.Slice && w.keep == nil {
		base := v.UnsafePointer()
		for i := 0; i < n; i++ {
			p := unsafe.Add(base, uintptr(i)*et.Size())
			for _, l := range ls {
				w.mix(readLeaf(unsafe.Add(p, l.off), l.size))
			}
		}
		return
	}
	for i := 0; i < n; i++ {
		w.value(v.Index(i))
	}
}

type leaf struct{ off, size uintptr }

var leafCache sync.Map // leafKey -> []leaf, or nil when not plain

type leafKey struct {
	t        reflect.Type
	counters bool
}

// plainLeaves lists the scalar fields of a pointer-free type with no
// skipped field, by offset, or reports false.
func plainLeaves(t reflect.Type, counters bool) ([]leaf, bool) {
	key := leafKey{t, counters}
	if ls, ok := leafCache.Load(key); ok {
		return ls.([]leaf), ls.([]leaf) != nil
	}
	ls, ok := appendLeaves(nil, t, 0, counters)
	if !ok {
		ls = nil
	}
	leafCache.Store(key, ls)
	return ls, ok
}

func appendLeaves(out []leaf, t reflect.Type, off uintptr, counters bool) ([]leaf, bool) {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64:
		return append(out, leaf{off, t.Size()}), true
	case reflect.Array:
		for i := 0; i < t.Len(); i++ {
			var ok bool
			if out, ok = appendLeaves(out, t.Elem(), off+uintptr(i)*t.Elem().Size(), counters); !ok {
				return nil, false
			}
		}
		return out, true
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			name := t.String() + "." + f.Name
			if loopFields[name] || !counters && idleCounters[name] {
				return nil, false
			}
			var ok bool
			if out, ok = appendLeaves(out, f.Type, off+f.Offset, counters); !ok {
				return nil, false
			}
		}
		return out, true
	}
	return nil, false
}

func readLeaf(ptr unsafe.Pointer, size uintptr) uint64 {
	switch size {
	case 1:
		return uint64(*(*uint8)(ptr))
	case 2:
		return uint64(*(*uint16)(ptr))
	case 4:
		return uint64(*(*uint32)(ptr))
	default:
		return *(*uint64)(ptr)
	}
}
