package route

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"era"
	"era/internal/server"
)

// TestRoutedWireCodec pins the codec between the router and a replica. For
// one op of every kind, with every parameter set, the wire op encodeChunk
// sends plans back to the op (server.WireOpOf is Plan's inverse), and a
// replica's answer (server.ToWire) decodes back to the result it encodes
// (server.QueryResponse.Result is ToWire's inverse) —
// an lcs that found nothing, offsets -1, and patterns holding bytes ≥ 0x80,
// one of them not UTF-8, included.
func TestRoutedWireCodec(t *testing.T) {
	high := []byte("caf\xc3\xa9\xe9\xff")
	for _, c := range []struct {
		kind era.OpKind
		res  era.Result
	}{
		{era.OpContains, era.Result{Found: true}},
		{era.OpCount, era.Result{Found: true, Count: 7}},
		{era.OpOccurrences, era.Result{Found: true, Count: 9, Occurrences: []int{0, 4, 17}}},
		{era.OpTopK, era.Result{Found: true, Count: 2, Top: []era.TopEntry{{Pattern: high, Count: 5}, {Pattern: []byte("AC"), Count: 3}}}},
		{era.OpLongestRepeat, era.Result{Found: true, Count: 2, Pattern: high, Occurrences: []int{3, 40}}},
		{era.OpCommonSubstring, era.Result{Found: true, Count: 6, Pattern: high, OffsetA: 0, OffsetB: 12}},
		{era.OpCommonSubstring, era.Result{OffsetA: -1, OffsetB: -1}},
		{era.OpDocFreq, era.Result{Found: true, Count: 5, Stats: []era.PatternStat{{Docs: 2, Count: 5}, {}}}},
		{era.OpMismatch, era.Result{Found: true, Count: 4, Occurrences: []int{1, 2}}},
	} {
		op := era.Op{Kind: c.kind, Pattern: high, MaxOccurrences: 3, K: 2, MinLen: 4, DocA: 1, DocB: 5, Patterns: [][]byte{high, []byte("GT")}}
		if got, err := server.WireOpOf(op).Plan(); err != nil || !reflect.DeepEqual(got, op) {
			t.Errorf("%s: WireOpOf(op).Plan() = %+v, %v, want %+v", c.kind, got, err, op)
		}
		var buf bytes.Buffer
		var sent []server.WireOp
		if n, err := encodeChunk(&buf, []era.Op{op}); n != 1 || err != nil {
			t.Fatalf("%s: encodeChunk took %d ops, %v", c.kind, n, err)
		}
		if err := json.Unmarshal(buf.Bytes(), &sent); err != nil || len(sent) != 1 {
			t.Fatalf("%s: the chunk %s does not decode to one wire op: %v", c.kind, buf.Bytes(), err)
		}
		if got, err := sent[0].Plan(); err != nil || !reflect.DeepEqual(got, op) {
			t.Errorf("%s: the op the replica reads from %s is %+v, %v, want %+v", c.kind, buf.Bytes(), got, err, op)
		}

		body, err := json.Marshal(server.ToWire(op, c.res))
		if err != nil {
			t.Fatal(err)
		}
		var a server.QueryResponse
		if err := json.Unmarshal(body, &a); err != nil {
			t.Fatalf("%s: decoding %s: %v", c.kind, body, err)
		}
		if got := a.Result(); !reflect.DeepEqual(got, c.res) {
			t.Errorf("%s: %s decodes to %+v, want %+v", c.kind, body, got, c.res)
		}
	}
}
