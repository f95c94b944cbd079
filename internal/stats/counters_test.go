package stats

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// counterCell is one settable cell of a Counters value: a uint64 field,
// one element of a fixed array, or one appended element of a slice.
type counterCell struct {
	name string
	set  func(v reflect.Value)
}

// counterCells walks typ and returns every cell reachable in a value of
// it. An unexported field fails the test: neither json.Marshal nor
// Run.Digest can see it.
func counterCells(t *testing.T, typ reflect.Type, name string) []counterCell {
	t.Helper()
	var out []counterCell
	switch typ.Kind() {
	case reflect.Uint64:
		out = append(out, counterCell{name, func(v reflect.Value) { v.SetUint(v.Uint() + 7) }})
	case reflect.Array:
		for i := 0; i < typ.Len(); i++ {
			for _, c := range counterCells(t, typ.Elem(), fmt.Sprintf("%s[%d]", name, i)) {
				out = append(out, counterCell{c.name, func(v reflect.Value) { c.set(v.Index(i)) }})
			}
		}
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				t.Errorf("%s.%s is unexported: Run.Digest cannot see it", name, f.Name)
				continue
			}
			for _, c := range counterCells(t, f.Type, name+"."+f.Name) {
				out = append(out, counterCell{c.name, func(v reflect.Value) { c.set(v.Field(i)) }})
			}
		}
	case reflect.Slice:
		elem := counterCells(t, typ.Elem(), name+"[0]")
		out = append(out, counterCell{name + "[0]", func(v reflect.Value) {
			e := reflect.New(typ.Elem()).Elem()
			for _, c := range elem {
				c.set(e)
			}
			v.Set(reflect.Append(v, e))
		}})
	default:
		t.Fatalf("%s: counter of unsupported kind %v", name, typ.Kind())
	}
	return out
}

// TestEveryCounterReachesDigest sets each counter cell nonzero, one at a
// time, and requires Run.Digest to change each time. A counter the
// digest cannot see (unexported, or tagged json:"-") would silently drop
// out of every resume check, sweep-cache row and served stats_digest.
func TestEveryCounterReachesDigest(t *testing.T) {
	cells := counterCells(t, reflect.TypeOf(Counters{}), "Counters")
	var zero Run
	base := zero.Digest()
	names := map[string]bool{}
	for _, c := range cells {
		names[c.name] = true
		var r Run
		c.set(reflect.ValueOf(&r.Counters).Elem())
		if r.Digest() == base {
			t.Errorf("setting %s does not change Run.Digest", c.name)
		}
	}
	for _, want := range []string{"Counters.Messages[0]", "Counters.Occupancy.SumClass[0]", "Counters.Occupancy.Peak", "Counters.PhaseMarks[0]", "Counters.Timeline[0]"} {
		if !names[want] {
			t.Errorf("walk missed %s (covered %d cells)", want, len(cells))
		}
	}
}

// TestCountersJSONRoundTrip sets every counter cell and requires the
// value to survive json.Marshal and Unmarshal unchanged: the sweep
// checkpoint restores cells this way.
func TestCountersJSONRoundTrip(t *testing.T) {
	var full Counters
	v := reflect.ValueOf(&full).Elem()
	for _, c := range counterCells(t, v.Type(), "Counters") {
		c.set(v)
	}
	b, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	var back Counters
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, full) {
		t.Fatalf("round trip changed the counters:\n got %+v\nwant %+v", back, full)
	}
}
