package netsim

import (
	"math/rand"
	"net/netip"
	"testing"
)

func TestParseIPv4(t *testing.T) {
	if ip, err := ParseIPv4("1.2.3.4"); err != nil || ip != IP(1<<24|2<<16|3<<8|4) {
		t.Fatalf("ParseIPv4: %v, %v", ip, err)
	}
	for _, bad := range []string{"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "-1.0.0.1", "01.2.3.4", "a.b.c.d", "1..2.3",
		"+1.2.3.4", "-0.1.2.3", "1.2.3.+4"} {
		if _, err := ParseIPv4(bad); err == nil {
			t.Errorf("ParseIPv4(%q) accepted", bad)
		}
		if _, err := ParseIPv4([]byte(bad)); err == nil || err.Error() != `bad IPv4 address "`+bad+`"` {
			t.Errorf("ParseIPv4([]byte(%q)): %v", bad, err)
		}
	}
}

// ipv4Seeds is FuzzParseIPv4's corpus and the mutation loop's starting set.
var ipv4Seeds = []string{
	"1.2.3.4", "0.0.0.0", "255.255.255.255", "10.0.75.1", "192.168.100.200",
	"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "01.2.3.4", "1..2.3", "+1.2.3.4",
	"1.2.3.4 ", " 1.2.3.4", "::ffff:1.2.3.4", "1.2.3.4%eth0", "0x1.2.3.4", "1.2.3.0400",
}

// checkIPv4Grammar holds ParseIPv4 to the standard library's reading of a
// dotted quad: it accepts s exactly when net/netip parses s as an IPv4
// address, to the same address, and printing what it accepts gives back s
// byte for byte — the invariant that lets every door echo an address by
// printing it.
func checkIPv4Grammar(t *testing.T, s string) {
	t.Helper()
	ip, err := ParseIPv4(s)
	ref, refErr := netip.ParseAddr(s)
	if want := refErr == nil && ref.Is4(); (err == nil) != want {
		t.Fatalf("ParseIPv4(%q) error %v; net/netip accepts it as IPv4: %v", s, err, want)
	}
	if bip, berr := ParseIPv4([]byte(s)); (berr == nil) != (err == nil) || bip != ip {
		t.Fatalf("ParseIPv4([]byte(%q)) = %v, %v; the string form %v, %v", s, bip, berr, ip, err)
	}
	if err != nil {
		return
	}
	if a := ref.As4(); ip != IP(a[0])<<24|IP(a[1])<<16|IP(a[2])<<8|IP(a[3]) {
		t.Fatalf("ParseIPv4(%q) = %v, net/netip %v", s, ip, ref)
	}
	if got := string(ip.AppendTo(nil)); got != s {
		t.Fatalf("ParseIPv4(%q) prints back as %q", s, got)
	}
}

func FuzzParseIPv4(f *testing.F) {
	for _, s := range ipv4Seeds {
		f.Add(s)
	}
	f.Fuzz(checkIPv4Grammar)
}

// TestParseIPv4MatchesNetip runs FuzzParseIPv4's check over seeded
// mutations of its corpus, so that a plain `go test` covers the grammar
// without a fuzzing engine.
func TestParseIPv4MatchesNetip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const alphabet = "0123456789.....+-x:% "
	n := 200000
	if testing.Short() {
		n = 20000
	}
	for i := 0; i < n; i++ {
		b := []byte(ipv4Seeds[rng.Intn(len(ipv4Seeds))])
		for m := rng.Intn(4); m >= 0; m-- {
			c := alphabet[rng.Intn(len(alphabet))]
			switch j := rng.Intn(len(b) + 1); rng.Intn(3) {
			case 0:
				b = append(b[:j], append([]byte{c}, b[j:]...)...)
			case 1:
				if j < len(b) {
					b = append(b[:j], b[j+1:]...)
				}
			default:
				if j < len(b) {
					b[j] = c
				}
			}
		}
		checkIPv4Grammar(t, string(b))
	}
}

// TestParseIPv4ZeroAlloc: reading an address a peer sent, and printing one
// back, costs no allocation.
func TestParseIPv4ZeroAlloc(t *testing.T) {
	s := "192.168.100.200"
	b := []byte(s)
	buf := make([]byte, 0, 16)
	var sink IP
	allocs := testing.AllocsPerRun(100, func() {
		ip, err := ParseIPv4(s)
		if err != nil {
			t.Fatal(err)
		}
		ipb, err := ParseIPv4(b)
		if err != nil {
			t.Fatal(err)
		}
		sink = ip ^ ipb
		buf = ip.AppendTo(buf[:0])
	})
	if allocs != 0 || string(buf) != s {
		t.Fatalf("ParseIPv4 + AppendTo allocate %v times (printed %q, sink %v), want 0", allocs, buf, sink)
	}
}
