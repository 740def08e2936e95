package proc

// wirebench_test.go measures raw columnar frame encode/decode on the
// two bulk payload shapes the cluster actually ships — partition state
// (one uint64 column per partition, the checkpoint and migration
// payload) and partition CSR rows (owned indices, degrees and int32
// targets plus the PartOf column, the load payload). CI pins the
// encode and decode allocation counts with -maxallocs.

import (
	"bytes"
	"testing"

	"optiflow/internal/cluster/proc/wire"
)

// wireStatePayload is a bulk state payload shaped like a checkpoint
// fetch: 4 partitions x 4096 state values.
func wireStatePayload() FetchResp {
	resp := FetchResp{}
	for p := 0; p < 4; p++ {
		vs := make([]uint64, 4096)
		for i := range vs {
			vs[i] = uint64(p*4096+i) % 97
		}
		resp.Parts = append(resp.Parts, PartState{Part: p, Vals: vs})
	}
	return resp
}

// wireAdjPayload is a partition-load payload: 4 partitions x 4096
// vertices with 8 out-edges each.
func wireAdjPayload() LoadReq {
	const parts, perPart, deg = 4, 4096, 8
	const n = parts * perPart
	req := LoadReq{
		Job: "bench", Kind: KindCC,
		NumPartitions: parts, TotalVertices: n, Damping: 0.85,
		PartOf: make([]int32, n),
	}
	for v := range req.PartOf {
		req.PartOf[v] = int32(v % parts)
	}
	for p := 0; p < parts; p++ {
		pd := PartitionData{Part: p, Owned: make([]int32, perPart), Degrees: make([]int32, perPart)}
		for s := range pd.Owned {
			v := int32(s*parts + p)
			pd.Owned[s], pd.Degrees[s] = v, deg
			for j := int32(0); j < deg; j++ {
				pd.Targets = append(pd.Targets, (v+j*7)%n)
			}
		}
		req.Parts = append(req.Parts, pd)
	}
	return req
}

func benchWireEncode(b *testing.B, msg any) {
	var sink bytes.Buffer
	if err := writeFrame(&sink, 1, msg, wire.MaxFrame); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(sink.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.Reset()
		if err := writeFrame(&sink, 1, msg, wire.MaxFrame); err != nil {
			b.Fatal(err)
		}
	}
}

func benchWireDecode(b *testing.B, msg any) {
	var frames bytes.Buffer
	if err := writeFrame(&frames, 1, msg, wire.MaxFrame); err != nil {
		b.Fatal(err)
	}
	frame := frames.Bytes()
	r := bytes.NewReader(frame)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		if _, _, err := readFrame(r, wire.MaxFrame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireEncodeState_Raw(b *testing.B) { benchWireEncode(b, wireStatePayload()) }
func BenchmarkWireDecodeState_Raw(b *testing.B) { benchWireDecode(b, wireStatePayload()) }
func BenchmarkWireEncodeAdj_Raw(b *testing.B)   { benchWireEncode(b, wireAdjPayload()) }
func BenchmarkWireDecodeAdj_Raw(b *testing.B)   { benchWireDecode(b, wireAdjPayload()) }
