package main

import "testing"

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		queue   int
		maxBody int64
		wantErr bool
	}{
		{"defaults", 0, 64, 8 << 20, false},
		{"explicit workers", 8, 1, 1, false},
		{"negative workers", -1, 64, 8 << 20, true},
		{"zero queue", 4, 0, 8 << 20, true},
		{"negative queue", 4, -3, 8 << 20, true},
		{"zero maxbody", 4, 64, 0, true},
		{"negative maxbody", 4, 64, -1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.workers, tc.queue, tc.maxBody)
			if (err != nil) != tc.wantErr {
				t.Fatalf("validateFlags(%d, %d, %d) = %v, wantErr %v",
					tc.workers, tc.queue, tc.maxBody, err, tc.wantErr)
			}
		})
	}
}

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("s1=http://a:1/, s2=http://b:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers["s1"] != "http://a:1" || peers["s2"] != "http://b:2" {
		t.Fatalf("peers = %v", peers)
	}

	if peers, err := parsePeers(""); err != nil || len(peers) != 0 {
		t.Fatalf("empty spec: peers=%v err=%v", peers, err)
	}

	for _, bad := range []string{"s1", "=http://a", "s1=", "s1=http://a,s1=http://b"} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("parsePeers(%q) accepted malformed input", bad)
		}
	}
}
