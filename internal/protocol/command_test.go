package protocol

import (
	"errors"
	"reflect"
	"testing"
	"unsafe"
)

// TestCommandResetLeavesNothingOver fills every field of a command,
// nested ones included, and requires reset to clear them all: the
// parsers build each request's command field by field after reset, so
// a field reset forgets would carry one request's value into the next.
func TestCommandResetLeavesNothingOver(t *testing.T) {
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem() // unexported fields too
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(1)
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
		case reflect.Interface:
			v.Set(reflect.ValueOf(errors.New("left over")))
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		default:
			t.Fatalf("no filler for a %v field", v.Kind())
		}
	}
	var cmd command
	fill(reflect.ValueOf(&cmd).Elem())
	cmd.reset()
	if !reflect.DeepEqual(cmd, command{}) {
		t.Fatalf("after reset: %+v, want the zero command", cmd)
	}
}
