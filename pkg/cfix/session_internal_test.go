package cfix

import (
	"reflect"
	"testing"
)

// TestSameComparesEveryField: changing any one field of a session
// finding makes it differ from the original, so a field added to the
// wire shape cannot be left out of same.
func TestSameComparesEveryField(t *testing.T) {
	base := SessionFindingJSON{FindingJSON: FindingJSON{Contexts: []string{"a"}}}
	if !base.same(base) {
		t.Fatal("a finding differs from itself")
	}
	var check func(typ reflect.Type, index []int)
	check = func(typ reflect.Type, index []int) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			at := append(append([]int(nil), index...), i)
			if f.Anonymous {
				check(f.Type, at)
				continue
			}
			g := base
			v := reflect.ValueOf(&g).Elem().FieldByIndex(at)
			switch v.Kind() {
			case reflect.String:
				v.SetString("x")
			case reflect.Int:
				v.SetInt(1)
			case reflect.Bool:
				v.SetBool(true)
			case reflect.Slice:
				v.Set(reflect.ValueOf([]string{"b"}))
			default:
				t.Fatalf("%s: no test value for kind %s", f.Name, v.Kind())
			}
			if base.same(g) {
				t.Errorf("same ignores %s", f.Name)
			}
		}
	}
	check(reflect.TypeOf(base), nil)
}
