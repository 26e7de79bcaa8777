// Package testkit is the repository's correctness net: a canonical JSON
// encoder with byte-deterministic output, a tolerance-aware golden-file
// framework for the experiment result structs, and the comparison engine
// both share. Every experiments.Run* entry point pins its numbers to a
// vector under testdata/golden/ through this package, so a silent
// regression anywhere in the DSP substrate fails a test instead of quietly
// changing EXPERIMENTS.md.
package testkit

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// Non-finite floats have no JSON literal; they are encoded as these string
// sentinels and turned back into floats by the comparison engine.
const (
	sentinelNaN    = "NaN"
	sentinelPosInf = "Infinity"
	sentinelNegInf = "-Infinity"
)

// MarshalCanonical encodes v as canonical, human-diffable JSON: two-space
// indentation, struct fields in declaration order, map keys sorted
// (numerically for integer-keyed maps), floats in shortest round-trip form,
// and NaN/±Inf as string sentinels (encoding/json rejects them outright).
// The same value always yields the same bytes, which is what makes golden
// files and CI diffs of `bistlab -json` stable.
func MarshalCanonical(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := encodeValue(&buf, reflect.ValueOf(v), 0); err != nil {
		return nil, err
	}
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// UnmarshalStrict decodes exactly one JSON value from data into v, the
// inverse the parsers of outside bytes pair with MarshalCanonical. Unknown
// object fields are errors, and so is anything but whitespace after the
// value. The end is checked with Decoder.Token, not Decoder.More: More
// reports false when the next byte is '}' or ']', so `{"A":1}}` would pass.
func UnmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data")
	}
	return nil
}

// FormatFloat renders a float the way the canonical encoder does: shortest
// decimal that round-trips through float64, or a sentinel for non-finite
// values.
func FormatFloat(f float64) string {
	switch {
	case math.IsNaN(f):
		return sentinelNaN
	case math.IsInf(f, 1):
		return sentinelPosInf
	case math.IsInf(f, -1):
		return sentinelNegInf
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// quote writes s as a JSON string literal. Wherever strconv.Quote writes
// valid JSON it writes the same bytes: printable runes as they are, '"',
// '\\' and \b \f \n \r \t as short escapes, other runes below U+10000 as
// \u escapes. strconv.Quote's remaining forms are not JSON (\a, \v, \x7f,
// \U0001f600, \xff for an invalid byte), so there control characters and DEL
// become \u escapes too, a rune above U+FFFF that is not printable becomes
// a surrogate pair, and an invalid UTF-8 byte becomes \ufffd.
func quote(buf *bytes.Buffer, s string) {
	buf.WriteByte('"')
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		i += size
		switch {
		case r == '"' || r == '\\':
			buf.WriteByte('\\')
			buf.WriteByte(byte(r))
		case r == '\b':
			buf.WriteString(`\b`)
		case r == '\f':
			buf.WriteString(`\f`)
		case r == '\n':
			buf.WriteString(`\n`)
		case r == '\r':
			buf.WriteString(`\r`)
		case r == '\t':
			buf.WriteString(`\t`)
		case r == utf8.RuneError && size == 1:
			buf.WriteString(`\ufffd`)
		case strconv.IsPrint(r):
			buf.WriteString(s[i-size : i])
		case r < 0x10000:
			fmt.Fprintf(buf, `\u%04x`, r)
		default:
			hi, lo := utf16.EncodeRune(r)
			fmt.Fprintf(buf, `\u%04x\u%04x`, hi, lo)
		}
	}
	buf.WriteByte('"')
}

func indent(buf *bytes.Buffer, depth int) {
	for i := 0; i < depth; i++ {
		buf.WriteString("  ")
	}
}

func encodeValue(buf *bytes.Buffer, v reflect.Value, depth int) error {
	if !v.IsValid() {
		buf.WriteString("null")
		return nil
	}
	switch v.Kind() {
	case reflect.Ptr, reflect.Interface:
		if v.IsNil() {
			buf.WriteString("null")
			return nil
		}
		return encodeValue(buf, v.Elem(), depth)
	case reflect.Bool:
		buf.WriteString(strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		buf.WriteString(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		buf.WriteString(strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		f := v.Float()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			buf.WriteString(strconv.Quote(FormatFloat(f)))
		} else {
			buf.WriteString(FormatFloat(f))
		}
	case reflect.Complex64, reflect.Complex128:
		// Encoded as a two-element [re, im] array.
		c := v.Complex()
		buf.WriteString("[")
		buf.WriteString(FormatFloat(real(c)))
		buf.WriteString(", ")
		buf.WriteString(FormatFloat(imag(c)))
		buf.WriteString("]")
	case reflect.String:
		quote(buf, v.String())
	case reflect.Slice:
		if v.IsNil() {
			buf.WriteString("null")
			return nil
		}
		return encodeSeq(buf, v, depth)
	case reflect.Array:
		return encodeSeq(buf, v, depth)
	case reflect.Map:
		return encodeMap(buf, v, depth)
	case reflect.Struct:
		return encodeStruct(buf, v, depth)
	default:
		return fmt.Errorf("testkit: cannot encode %s", v.Kind())
	}
	return nil
}

func encodeSeq(buf *bytes.Buffer, v reflect.Value, depth int) error {
	n := v.Len()
	if n == 0 {
		buf.WriteString("[]")
		return nil
	}
	buf.WriteString("[\n")
	for i := 0; i < n; i++ {
		indent(buf, depth+1)
		if err := encodeValue(buf, v.Index(i), depth+1); err != nil {
			return err
		}
		if i < n-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	indent(buf, depth)
	buf.WriteByte(']')
	return nil
}

// mapKeyString renders a map key as its JSON object-key string. Only string
// and integer keys are supported (the only kinds the result structs use).
func mapKeyString(k reflect.Value) (string, error) {
	switch k.Kind() {
	case reflect.String:
		return k.String(), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.FormatInt(k.Int(), 10), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return strconv.FormatUint(k.Uint(), 10), nil
	}
	return "", fmt.Errorf("testkit: unsupported map key kind %s", k.Kind())
}

func encodeMap(buf *bytes.Buffer, v reflect.Value, depth int) error {
	if v.IsNil() {
		buf.WriteString("null")
		return nil
	}
	keys := v.MapKeys()
	type kv struct {
		label string
		key   reflect.Value
	}
	pairs := make([]kv, 0, len(keys))
	for _, k := range keys {
		label, err := mapKeyString(k)
		if err != nil {
			return err
		}
		pairs = append(pairs, kv{label, k})
	}
	numeric := len(pairs) > 0 && v.Type().Key().Kind() != reflect.String
	sort.Slice(pairs, func(i, j int) bool {
		if numeric {
			a, _ := strconv.ParseInt(pairs[i].label, 10, 64)
			b, _ := strconv.ParseInt(pairs[j].label, 10, 64)
			return a < b
		}
		return pairs[i].label < pairs[j].label
	})
	if len(pairs) == 0 {
		buf.WriteString("{}")
		return nil
	}
	buf.WriteString("{\n")
	for i, p := range pairs {
		indent(buf, depth+1)
		quote(buf, p.label)
		buf.WriteString(": ")
		if err := encodeValue(buf, v.MapIndex(p.key), depth+1); err != nil {
			return err
		}
		if i < len(pairs)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	indent(buf, depth)
	buf.WriteByte('}')
	return nil
}

// fieldName resolves the JSON object key for a struct field, honouring the
// name part of a `json` tag; a "-" tag skips the field.
func fieldName(f reflect.StructField) (string, bool) {
	tag := f.Tag.Get("json")
	if tag == "-" {
		return "", false
	}
	if name, _, _ := strings.Cut(tag, ","); name != "" {
		return name, true
	}
	return f.Name, true
}

func encodeStruct(buf *bytes.Buffer, v reflect.Value, depth int) error {
	t := v.Type()
	type field struct {
		name string
		val  reflect.Value
	}
	var fields []field
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.PkgPath != "" { // unexported
			continue
		}
		name, ok := fieldName(f)
		if !ok {
			continue
		}
		fields = append(fields, field{name, v.Field(i)})
	}
	if len(fields) == 0 {
		buf.WriteString("{}")
		return nil
	}
	buf.WriteString("{\n")
	for i, f := range fields {
		indent(buf, depth+1)
		quote(buf, f.name)
		buf.WriteString(": ")
		if err := encodeValue(buf, f.val, depth+1); err != nil {
			return err
		}
		if i < len(fields)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	indent(buf, depth)
	buf.WriteByte('}')
	return nil
}
