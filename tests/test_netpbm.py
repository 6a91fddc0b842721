"""PPM/PGM codecs: format bytes, round trips, malformed-input rejection."""

import numpy as np
import pytest

from nightseg.netpbm import (decode8, quantize8, read_pgm, read_ppm8, write_pgm,
                             write_ppm)


class TestWrite:
    def test_white_pixel_exact_bytes(self):
        blob = write_ppm(np.ones((1, 1, 3)))
        assert blob == b"P6\n1 1\n255\n\xff\xff\xff"

    def test_pgm_stores_class_indices_directly(self):
        blob = write_pgm(np.array([[0, 3], [1, 2]]))
        assert blob == b"P5\n2 2\n255\n\x00\x03\x01\x02"

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError, match="H,W,3"):
            write_ppm(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="integer mask"):
            write_pgm(np.zeros((2, 2, 3)))


class TestRoundTrip:
    def test_ppm_roundtrip_equals_quantization(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            img = rng.uniform(size=(5, 7, 3))
            back = decode8(read_ppm8(write_ppm(img)))
            assert np.array_equal(back, quantize8(img).astype(np.float64) / 255.0)
            assert np.array_equal(read_ppm8(write_ppm(img)), quantize8(img))

    def test_decode8_rounds_once_in_either_dtype(self):
        values = np.arange(256, dtype=np.uint8)
        wide = values.astype(np.float64) / 255.0
        assert decode8(values).tobytes() == wide.tobytes()
        assert decode8(values, np.float32).tobytes() == wide.astype(np.float32).tobytes()

    def test_pgm_roundtrip_lossless(self):
        rng = np.random.default_rng(1)
        mask = rng.integers(0, 8, size=(9, 4))
        assert np.array_equal(read_pgm(write_pgm(mask)), mask)

    def test_comment_in_header_accepted(self):
        blob = b"P5\n# a comment\n2 1\n255\n\x01\x02"
        assert read_pgm(blob).tolist() == [[1, 2]]


MALFORMED_PGM = [
    b"",                                        # empty
    b"P4\n1 1\n255\n\x00",                      # wrong magic
    b"P6\n1 1\n255\n\x00",                      # ppm magic for pgm reader
    b"P5",                                      # truncated after magic
    b"P5\n",                                    # missing dimensions
    b"P5\n1\n255\n\x00",                        # missing height
    b"P5\nx 1\n255\n\x00",                      # non-numeric width
    b"P5\n1 y\n255\n\x00",                      # non-numeric height
    b"P5\n0 1\n255\n",                          # zero width
    b"P5\n1 0\n255\n",                          # zero height
    b"P5\n1 1\n",                               # missing maxval
    b"P5\n1 1\n65535\n\x00\x00",                # 16-bit maxval
    b"P5\n1 1\n254\n\x00",                      # wrong maxval
    b"P5\n1 1\n255\n",                          # missing payload
    b"P5\n2 2\n255\n\x00\x01\x02",              # short payload
    b"P5\n1 1\n255\n\x00\x01",                  # long payload
    b"P5\n1 1\n255\x00",                        # no separator newline... separator is \x00
    b"P5 1 1 255",                              # header never terminated
    b"P5\n# unterminated comment",              # comment to eof
    b"P5\n-1 1\n255\n\x00",                     # negative width
]


class TestMalformed:
    @pytest.mark.parametrize("blob", MALFORMED_PGM, ids=range(len(MALFORMED_PGM)))
    def test_rejected_with_byte_offset(self, blob):
        with pytest.raises(ValueError, match="byte"):
            read_pgm(blob)

    def test_ppm_payload_checks_channels(self):
        with pytest.raises(ValueError, match="byte"):
            read_ppm8(b"P6\n1 1\n255\n\x00")  # needs 3 bytes
