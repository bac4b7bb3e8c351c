package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/simnet"
	"repro/internal/version"
	"repro/internal/wire"
)

// Property tests on the pure pieces of the segment server: the §5.1 write
// semantics (applyData) against a reference model, and wire round-trips of
// every message type updates travel in.

// refApply is an independent, obviously-correct model of §5.1's "replacing,
// appending, or truncating data in the segment".
func refApply(data []byte, off int64, payload []byte, truncate bool) []byte {
	end := off + int64(len(payload))
	out := make([]byte, 0, end)
	if truncate {
		out = append(out, data...)
		if int64(len(out)) > end {
			out = out[:end]
		}
		for int64(len(out)) < end {
			out = append(out, 0)
		}
	} else {
		out = append(out, data...)
		for int64(len(out)) < end {
			out = append(out, 0)
		}
	}
	copy(out[off:end], payload)
	return out
}

func TestQuickApplyDataMatchesModel(t *testing.T) {
	f := func(initial []byte, off16 uint16, payload []byte, truncate bool) bool {
		off := int64(off16 % 256)
		got := applyData(append([]byte(nil), initial...), off, payload, truncate)
		want := refApply(initial, off, payload, truncate)
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDataSequenceMatchesModel(t *testing.T) {
	// A random sequence of writes applied to both implementations must stay
	// byte-identical; this catches aliasing bugs a single step can hide.
	rng := rand.New(rand.NewSource(7))
	var impl, model []byte
	for i := 0; i < 3000; i++ {
		off := int64(rng.Intn(200))
		payload := make([]byte, rng.Intn(40))
		rng.Read(payload)
		truncate := rng.Intn(4) == 0
		impl = applyData(impl, off, payload, truncate)
		model = refApply(model, off, payload, truncate)
		if !bytes.Equal(impl, model) {
			t.Fatalf("step %d: impl %d bytes, model %d bytes", i, len(impl), len(model))
		}
	}
}

func TestQuickParamsWireRoundTrip(t *testing.T) {
	f := func(minR, safety, maxR int, stab, migr, hot bool, avail uint8) bool {
		p := Params{
			MinReplicas: minR,
			WriteSafety: safety,
			Stability:   stab,
			Migration:   migr,
			Avail:       Availability(avail % 3),
			MaxReplicas: maxR,
			HotRead:     hot,
		}
		var q Params
		if err := wire.Unmarshal(wire.Marshal(&p), &q); err != nil {
			return false
		}
		return p == q
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCastMsgWireRoundTrip(t *testing.T) {
	f := func(op uint8, major, newMajor uint64, off int64, data []byte, trunc bool) bool {
		m := castMsg{
			Op: op, Major: major, NewMajor: newMajor,
			Off: off, Data: data, Truncate: trunc,
			Params: DefaultParams(),
		}
		var out castMsg
		if err := wire.Unmarshal(wire.Marshal(&m), &out); err != nil {
			return false
		}
		return out.Op == m.Op && out.Major == m.Major && out.NewMajor == m.NewMajor &&
			out.Off == m.Off && bytes.Equal(out.Data, m.Data) && out.Truncate == m.Truncate
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDirectMsgWireRoundTrip(t *testing.T) {
	f := func(kind uint8, reqID uint64, seg uint64, off, n int64, data []byte, errs string, stable bool, want version.Pair) bool {
		m := directMsg{
			Kind: kind, ReqID: reqID, Seg: SegID(seg),
			Off: off, N: n, Data: data, Err: errs, Stable: stable, Want: want,
		}
		buf := wire.Marshal(&m)
		var out directMsg
		if err := wire.Unmarshal(buf, &out); err != nil || len(buf) != m.SizeWire() {
			return false
		}
		return out.Kind == m.Kind && out.ReqID == m.ReqID && out.Seg == m.Seg &&
			out.Off == m.Off && out.N == m.N && bytes.Equal(out.Data, m.Data) &&
			out.Err == m.Err && out.Stable == m.Stable && out.Want == m.Want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Want rides the reserved pair slot, so the layout older minors decode
	// is unchanged: an empty message is as long as it always was.
	if n := len(wire.Marshal(&directMsg{})); n != 115 {
		t.Fatalf("empty directMsg encodes to %d bytes, want 115", n)
	}
}

func TestQuickSegSnapshotRoundTrip(t *testing.T) {
	f := func(majors uint8, holders []byte, deleted bool) bool {
		ss := segSnapshot{Params: DefaultParams(), Deleted: deleted}
		n := int(majors % 8)
		trailing := 0
		for i := 0; i < n; i++ {
			ms := majorSnap{Major: uint64(i + 1), Size: int64(i * 100)}
			if i < len(holders) && holders[i]%2 == 1 {
				ms.Transferring, ms.TransferTo = true, simnet.NodeID(fmt.Sprintf("srv%d", holders[i]))
			}
			trailing += wire.SizeString(string(ms.TransferTo))
			ss.Majors = append(ss.Majors, ms)
		}
		full := wire.Marshal(&ss)
		// A snapshot stored before transfer targets were recorded ends
		// where the trailing targets begin, and still decodes.
		for _, older := range []bool{false, true} {
			buf := full
			if older {
				buf = full[:len(full)-trailing]
			}
			var out segSnapshot
			if err := wire.Unmarshal(buf, &out); err != nil {
				return false
			}
			if out.Deleted != ss.Deleted || len(out.Majors) != len(ss.Majors) {
				return false
			}
			for i := range out.Majors {
				o, m := out.Majors[i], ss.Majors[i]
				want := m.TransferTo
				if older {
					want = ""
				}
				if o.Major != m.Major || o.Size != m.Size || o.Transferring != m.Transferring || o.TransferTo != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
