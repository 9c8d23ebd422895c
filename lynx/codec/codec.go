// Package codec marshals typed operation parameters into LYNX message
// payloads. LYNX was a typed language: remote operations carried typed
// parameter lists, and the run-time package "performed type checking"
// and confirmed operation names and types on replies (§3.3). This
// package gives Go callers the same property: values are encoded with
// self-describing type tags, and decoding into mismatched types fails
// loudly instead of misinterpreting bytes.
//
//	payload, err := codec.Marshal("transfer", int64(250), true)
//	...
//	var op string
//	var amount int64
//	var audited bool
//	err = codec.Unmarshal(payload, &op, &amount, &audited)
//
// Supported kinds: bool, all fixed-size ints and uints, int/uint
// (encoded as 64-bit), float32/float64, string, []byte, slices of
// supported types, and structs whose exported fields are supported.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
)

// Type tags on the wire.
const (
	tagBool byte = iota + 1
	tagInt8
	tagInt16
	tagInt32
	tagInt64
	tagUint8
	tagUint16
	tagUint32
	tagUint64
	tagFloat32
	tagFloat64
	tagString
	tagBytes
	tagSlice
	tagStruct
)

func tagName(t byte) string {
	names := map[byte]string{
		tagBool: "bool", tagInt8: "int8", tagInt16: "int16", tagInt32: "int32",
		tagInt64: "int64", tagUint8: "uint8", tagUint16: "uint16",
		tagUint32: "uint32", tagUint64: "uint64", tagFloat32: "float32",
		tagFloat64: "float64", tagString: "string", tagBytes: "[]byte",
		tagSlice: "slice", tagStruct: "struct",
	}
	if n, ok := names[t]; ok {
		return n
	}
	return fmt.Sprintf("tag(%d)", t)
}

// ErrTypeMismatch is wrapped by decode errors when the wire tag does not
// match the destination's type — the LYNX "type checking" failure.
var ErrTypeMismatch = errors.New("codec: type mismatch")

// ErrShortPayload is wrapped when the payload ends prematurely.
var ErrShortPayload = errors.New("codec: short payload")

// Marshal encodes vals into a self-describing payload.
func Marshal(vals ...any) ([]byte, error) {
	var buf []byte
	for i, v := range vals {
		var err error
		buf, err = appendValue(buf, reflect.ValueOf(v))
		if err != nil {
			return nil, fmt.Errorf("codec: argument %d: %w", i, err)
		}
	}
	return buf, nil
}

// Unmarshal decodes a payload into the pointed-to destinations, checking
// every type tag.
func Unmarshal(data []byte, ptrs ...any) error {
	rest := data
	for i, p := range ptrs {
		rv := reflect.ValueOf(p)
		if rv.Kind() != reflect.Pointer || rv.IsNil() {
			return fmt.Errorf("codec: destination %d is not a non-nil pointer", i)
		}
		var err error
		rest, err = readValue(rest, rv.Elem())
		if err != nil {
			return fmt.Errorf("codec: argument %d: %w", i, err)
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("codec: %d trailing bytes (arity mismatch)", len(rest))
	}
	return nil
}

// MustMarshal is Marshal panicking on error (static arguments).
func MustMarshal(vals ...any) []byte {
	buf, err := Marshal(vals...)
	if err != nil {
		panic(err)
	}
	return buf
}

func appendValue(buf []byte, v reflect.Value) ([]byte, error) {
	switch v.Kind() {
	case reflect.Bool:
		b := byte(0)
		if v.Bool() {
			b = 1
		}
		return append(buf, tagBool, b), nil
	case reflect.Int8:
		return append(buf, tagInt8, byte(v.Int())), nil
	case reflect.Int16:
		return binary.LittleEndian.AppendUint16(append(buf, tagInt16), uint16(v.Int())), nil
	case reflect.Int32:
		return binary.LittleEndian.AppendUint32(append(buf, tagInt32), uint32(v.Int())), nil
	case reflect.Int64, reflect.Int:
		return binary.LittleEndian.AppendUint64(append(buf, tagInt64), uint64(v.Int())), nil
	case reflect.Uint8:
		return append(buf, tagUint8, byte(v.Uint())), nil
	case reflect.Uint16:
		return binary.LittleEndian.AppendUint16(append(buf, tagUint16), uint16(v.Uint())), nil
	case reflect.Uint32:
		return binary.LittleEndian.AppendUint32(append(buf, tagUint32), uint32(v.Uint())), nil
	case reflect.Uint64, reflect.Uint:
		return binary.LittleEndian.AppendUint64(append(buf, tagUint64), v.Uint()), nil
	case reflect.Float32:
		return binary.LittleEndian.AppendUint32(append(buf, tagFloat32), math.Float32bits(float32(v.Float()))), nil
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(append(buf, tagFloat64), math.Float64bits(v.Float())), nil
	case reflect.String:
		buf = append(buf, tagString)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v.Len()))
		return append(buf, v.String()...), nil
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			buf = append(buf, tagBytes)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v.Len()))
			return append(buf, v.Bytes()...), nil
		}
		buf = append(buf, tagSlice)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v.Len()))
		for i := 0; i < v.Len(); i++ {
			var err error
			buf, err = appendValue(buf, v.Index(i))
			if err != nil {
				return nil, fmt.Errorf("[%d]: %w", i, err)
			}
		}
		return buf, nil
	case reflect.Struct:
		fields := exportedFields(v.Type())
		buf = append(buf, tagStruct)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(fields)))
		for _, fi := range fields {
			var err error
			buf, err = appendValue(buf, v.Field(fi))
			if err != nil {
				return nil, fmt.Errorf(".%s: %w", v.Type().Field(fi).Name, err)
			}
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("codec: unsupported kind %v", v.Kind())
	}
}

func readValue(data []byte, dst reflect.Value) ([]byte, error) {
	if len(data) == 0 {
		return nil, ErrShortPayload
	}
	tag := data[0]
	data = data[1:]
	fail := func() ([]byte, error) {
		return nil, fmt.Errorf("%w: wire has %s, destination is %v",
			ErrTypeMismatch, tagName(tag), dst.Type())
	}
	need := func(n int) error {
		if len(data) < n {
			return ErrShortPayload
		}
		return nil
	}
	switch tag {
	case tagBool:
		if dst.Kind() != reflect.Bool {
			return fail()
		}
		if err := need(1); err != nil {
			return nil, err
		}
		dst.SetBool(data[0] != 0)
		return data[1:], nil
	case tagInt8, tagInt16, tagInt32, tagInt64:
		size := map[byte]int{tagInt8: 1, tagInt16: 2, tagInt32: 4, tagInt64: 8}[tag]
		wantKind := map[byte]reflect.Kind{
			tagInt8: reflect.Int8, tagInt16: reflect.Int16,
			tagInt32: reflect.Int32, tagInt64: reflect.Int64,
		}[tag]
		k := dst.Kind()
		if k != wantKind && !(tag == tagInt64 && k == reflect.Int) {
			return fail()
		}
		if err := need(size); err != nil {
			return nil, err
		}
		var u uint64
		switch size {
		case 1:
			u = uint64(data[0])
			dst.SetInt(int64(int8(u)))
		case 2:
			u = uint64(binary.LittleEndian.Uint16(data))
			dst.SetInt(int64(int16(u)))
		case 4:
			u = uint64(binary.LittleEndian.Uint32(data))
			dst.SetInt(int64(int32(u)))
		case 8:
			u = binary.LittleEndian.Uint64(data)
			dst.SetInt(int64(u))
		}
		return data[size:], nil
	case tagUint8, tagUint16, tagUint32, tagUint64:
		size := map[byte]int{tagUint8: 1, tagUint16: 2, tagUint32: 4, tagUint64: 8}[tag]
		wantKind := map[byte]reflect.Kind{
			tagUint8: reflect.Uint8, tagUint16: reflect.Uint16,
			tagUint32: reflect.Uint32, tagUint64: reflect.Uint64,
		}[tag]
		k := dst.Kind()
		if k != wantKind && !(tag == tagUint64 && k == reflect.Uint) {
			return fail()
		}
		if err := need(size); err != nil {
			return nil, err
		}
		switch size {
		case 1:
			dst.SetUint(uint64(data[0]))
		case 2:
			dst.SetUint(uint64(binary.LittleEndian.Uint16(data)))
		case 4:
			dst.SetUint(uint64(binary.LittleEndian.Uint32(data)))
		case 8:
			dst.SetUint(binary.LittleEndian.Uint64(data))
		}
		return data[size:], nil
	case tagFloat32:
		if dst.Kind() != reflect.Float32 {
			return fail()
		}
		if err := need(4); err != nil {
			return nil, err
		}
		dst.SetFloat(float64(math.Float32frombits(binary.LittleEndian.Uint32(data))))
		return data[4:], nil
	case tagFloat64:
		if dst.Kind() != reflect.Float64 {
			return fail()
		}
		if err := need(8); err != nil {
			return nil, err
		}
		dst.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(data)))
		return data[8:], nil
	case tagString:
		if dst.Kind() != reflect.String {
			return fail()
		}
		if err := need(4); err != nil {
			return nil, err
		}
		n := int(binary.LittleEndian.Uint32(data))
		data = data[4:]
		if err := need(n); err != nil {
			return nil, err
		}
		dst.SetString(string(data[:n]))
		return data[n:], nil
	case tagBytes:
		if dst.Kind() != reflect.Slice || dst.Type().Elem().Kind() != reflect.Uint8 {
			return fail()
		}
		if err := need(4); err != nil {
			return nil, err
		}
		n := int(binary.LittleEndian.Uint32(data))
		data = data[4:]
		if err := need(n); err != nil {
			return nil, err
		}
		out := make([]byte, n)
		copy(out, data)
		dst.SetBytes(out)
		return data[n:], nil
	case tagSlice:
		if dst.Kind() != reflect.Slice {
			return fail()
		}
		if err := need(4); err != nil {
			return nil, err
		}
		n := int(binary.LittleEndian.Uint32(data))
		data = data[4:]
		// Each element starts with its tag byte, so a count larger than
		// the bytes left is short; checking first keeps a corrupt count
		// from allocating a huge slice.
		if err := need(n); err != nil {
			return nil, err
		}
		s := reflect.MakeSlice(dst.Type(), n, n)
		for i := 0; i < n; i++ {
			var err error
			data, err = readValue(data, s.Index(i))
			if err != nil {
				return nil, fmt.Errorf("[%d]: %w", i, err)
			}
		}
		dst.Set(s)
		return data, nil
	case tagStruct:
		if dst.Kind() != reflect.Struct {
			return fail()
		}
		if err := need(4); err != nil {
			return nil, err
		}
		n := int(binary.LittleEndian.Uint32(data))
		data = data[4:]
		fields := exportedFields(dst.Type())
		if n != len(fields) {
			return nil, fmt.Errorf("%w: wire struct has %d fields, %v has %d",
				ErrTypeMismatch, n, dst.Type(), len(fields))
		}
		for _, fi := range fields {
			var err error
			data, err = readValue(data, dst.Field(fi))
			if err != nil {
				return nil, fmt.Errorf(".%s: %w", dst.Type().Field(fi).Name, err)
			}
		}
		return data, nil
	default:
		return nil, fmt.Errorf("codec: unknown wire tag %d", tag)
	}
}

// exportedFields returns indices of a struct type's exported fields.
func exportedFields(t reflect.Type) []int {
	var out []int
	for i := 0; i < t.NumField(); i++ {
		if t.Field(i).IsExported() {
			out = append(out, i)
		}
	}
	return out
}
