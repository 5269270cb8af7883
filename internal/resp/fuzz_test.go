package resp

import (
	"bufio"
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// asWritten is v as Write puts it on the wire: error messages gain the
// default code, and a bare CR inside a simple-string or error line
// (which Read accepts) becomes a space.
func asWritten(v Value) Value {
	switch v.Kind {
	case SimpleString, ErrorString:
		if v.Kind == ErrorString && !hasErrorCode(v.Str) {
			v.Str = "ERR " + v.Str
		}
		v.Str = crlfToSpace.Replace(v.Str)
	case Array:
		if v.Array != nil {
			out := make([]Value, len(v.Array))
			for i, e := range v.Array {
				out[i] = asWritten(e)
			}
			v.Array = out
		}
	}
	return v
}

// FuzzRead asserts the protocol reader never panics and that whatever
// it successfully reads re-encodes and re-reads to the same value.
func FuzzRead(f *testing.F) {
	seeds := []string{
		"+OK\r\n",
		"-ERR boom\r\n",
		"-lower case, no code\r\n",
		"+bare\rCR\r\n",
		":42\r\n",
		":-9223372036854775808\r\n",
		":9223372036854775807\r\n",
		":9223372036854775808\r\n",
		":+5\r\n",
		":0000000000000000000000012\r\n",
		"$5\r\nhello\r\n",
		"$-1\r\n",
		"*2\r\n$4\r\nPING\r\n$1\r\nx\r\n",
		"*3\r\n*2\r\n$1\r\nv\r\n$2\r\nto\r\n*2\r\n*2\r\n:1\r\n:2\r\n*2\r\n:3\r\n:4\r\n*0\r\n",
		"*-1\r\n",
		"*1000000\r\n",
		"$99999999999\r\n",
		"garbage",
		// Lines that never end: every one must be refused at a bound.
		"*1\r\n$" + strings.Repeat("9", 5000),
		":" + strings.Repeat("1", 5000) + "\r\n",
		"*" + strings.Repeat("1", 5000),
		"+" + strings.Repeat("x", maxInlineLen+1),
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Read(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := Write(w, v); err != nil {
			t.Fatalf("cannot re-encode %+v: %v", v, err)
		}
		w.Flush()
		back, err := Read(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("cannot re-read %q: %v", buf.String(), err)
		}
		if want := asWritten(v); !reflect.DeepEqual(back, want) {
			t.Fatalf("value changed across Write and Read:\n got %+v\nwant %+v", back, want)
		}
	})
}
