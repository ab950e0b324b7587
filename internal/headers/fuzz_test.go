package headers

import "testing"

// FuzzParse feeds arbitrary frames to the header parser. Parse must
// never panic, and whatever it accepts must survive a round trip: the
// stack Build writes for the parsed tuple parses back to that tuple.
// The seed corpus is frames Build produced; it runs as an ordinary test,
// and `go test -fuzz FuzzParse ./internal/headers/` explores further.
func FuzzParse(f *testing.F) {
	for _, seed := range []struct {
		t   FiveTuple
		len int
	}{
		{FiveTuple{SrcIP: 0x0a000101, DstIP: 0x0a630001, SrcPort: 33000, DstPort: 5201, Proto: ProtoTCP}, 1500},
		{FiveTuple{SrcIP: 0xc0a80001, DstIP: 0x08080808, SrcPort: 53, DstPort: 5353, Proto: ProtoUDP}, 64},
		{FiveTuple{Proto: ProtoTCP}, 0},
	} {
		var buf [MaxStackLen]byte
		n, err := Build(buf[:], seed.t, seed.len)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[:n])
		f.Add(buf[:n-1])
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		got, err := Parse(frame)
		if err != nil {
			return
		}
		var buf [MaxStackLen]byte
		n, err := Build(buf[:], got.Tuple, got.TotalLen)
		if err != nil {
			t.Fatalf("Parse accepted %v, which Build rejects: %v", got.Tuple, err)
		}
		again, err := Parse(buf[:n])
		if err != nil {
			t.Fatalf("Build(%v) does not parse: %v", got.Tuple, err)
		}
		if again.Tuple != got.Tuple {
			t.Fatalf("round trip %v -> %v", got.Tuple, again.Tuple)
		}
	})
}
