package proc

// wirebench_test.go measures raw columnar frame encode/decode on the
// two bulk payload shapes the cluster actually ships — partition state
// (flat id/label/rank records, the checkpoint and migration payload)
// and partition adjacency (per-vertex out-edge lists, the load
// payload, decoded into a single edge arena). CI pins the encode
// allocation count with -maxallocs.

import (
	"bytes"
	"testing"

	"optiflow/internal/cluster/proc/wire"
)

// wireStatePayload is a bulk state payload shaped like a checkpoint
// fetch: 4 partitions x 4096 vertices of (id, label, rank).
func wireStatePayload() FetchResp {
	resp := FetchResp{}
	id := uint64(0)
	for p := 0; p < 4; p++ {
		vs := make([]VertexVal, 4096)
		for i := range vs {
			vs[i] = VertexVal{ID: id, Label: id % 97, Rank: 1 / float64(id+1)}
			id++
		}
		resp.Parts = append(resp.Parts, PartState{Part: p, Vertices: vs})
	}
	return resp
}

// wireAdjPayload is a partition-load payload: 4 partitions x 4096
// vertices with 8 out-edges each.
func wireAdjPayload() LoadReq {
	const parts, perPart, deg = 4, 4096, 8
	req := LoadReq{
		Job: "bench", Kind: KindCC,
		NumPartitions: parts, TotalVertices: parts * perPart, Damping: 0.85,
	}
	id := uint64(0)
	for p := 0; p < parts; p++ {
		vs := make([]VertexAdj, perPart)
		for i := range vs {
			out := make([]uint64, deg)
			for j := range out {
				out[j] = (id + uint64(j)*7) % uint64(parts*perPart)
			}
			vs[i] = VertexAdj{ID: id, Out: out}
			id++
		}
		req.Parts = append(req.Parts, PartitionData{Part: p, Vertices: vs})
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
