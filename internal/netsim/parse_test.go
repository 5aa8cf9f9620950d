package netsim

import "testing"

func TestParseIPv4(t *testing.T) {
	if ip, err := ParseIPv4("1.2.3.4"); err != nil || ip != IP(1<<24|2<<16|3<<8|4) {
		t.Fatalf("ParseIPv4: %v, %v", ip, err)
	}
	for _, bad := range []string{"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "-1.0.0.1", "01.2.3.4", "a.b.c.d", "1..2.3",
		"+1.2.3.4", "-0.1.2.3", "1.2.3.+4"} {
		if _, err := ParseIPv4(bad); err == nil {
			t.Errorf("ParseIPv4(%q) accepted", bad)
		}
	}
}
