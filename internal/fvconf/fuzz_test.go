package fvconf

import "testing"

// FuzzParse feeds arbitrary text to the script parser. Parse must never
// panic, and a script that parses must either compile or return an
// error — operator input reaches both through the fv tool. The seed
// corpus (the shipped policies) runs as an ordinary test; explore with
// `go test -fuzz FuzzParse ./internal/fvconf/`.
func FuzzParse(f *testing.F) {
	f.Add(MotivationScript)
	f.Add(FairQueueScript("40gbit", 4))
	f.Add(FairQueueScript("10gbit", 1))
	f.Add(WeightedFQScript("10gbit"))
	f.Add("qdisc add dev eth0 root handle 1: htb rate 1gbit default 1:1\n" +
		"class add dev eth0 parent 1: classid 1:1 rate 1gbit\n" +
		"filter add dev eth0 parent 1: match ip src 10.0.0.0/8 match ip dport 80 0xffff flowid 1:1\n")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			if s != nil {
				t.Fatalf("Parse returned a script alongside error %v", err)
			}
			return
		}
		tr, _, err := s.Compile()
		if err == nil && tr == nil {
			t.Fatal("Compile returned neither a tree nor an error")
		}
	})
}
