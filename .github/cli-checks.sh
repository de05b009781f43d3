#!/usr/bin/env bash
# Command-line checks of the installed meshtv entry point: the default sweep,
# every input format, and the refusals that must exit with one error line.
# Writes under $RUNNER_TEMP; run as `RUNNER_TEMP=<scratch dir> bash .github/cli-checks.sh`.
set -eo pipefail
# a numpy RuntimeWarning in any command below is an error
export PYTHONWARNINGS=error::RuntimeWarning
: "${RUNNER_TEMP:?set RUNNER_TEMP to a scratch directory}"

meshtv --synthetic icosphere_k=1,pattern=two_patch --trials 1 --no-time --out "$RUNNER_TEMP/meshtv-cli"
# a header plus 4 default noise levels x (L1-TV + 5 default p values)
test "$(wc -l < "$RUNNER_TEMP/meshtv-cli/results.csv")" -eq 25
# every solver and sweep flag spelled out at its documented default gives the same run
meshtv --synthetic icosphere_k=1,pattern=two_patch --trials 1 --no-time --out "$RUNNER_TEMP/meshtv-defaults" \
  --lambda 1 --rho 1 --eps 0.001 --outer-tol 1e-6 --outer-max 500 --inner-tol 1e-6 --inner-max 2000 \
  --beta1 10 --beta2 10 --seed 0 --noise-levels 0.05,0.1,0.2,0.3 --p-values 0.1,0.3,0.5,0.7,0.9
diff -r "$RUNNER_TEMP/meshtv-cli" "$RUNNER_TEMP/meshtv-defaults"
# an Lp-TV sweep at icosphere(3), where supports shrink and the free part narrows
meshtv --synthetic icosphere_k=3,pattern=two_patch --noise-levels 0.1,0.3 --p-values 0.5,0.9 --trials 2 \
  --lambda 0.1 --beta1 2 --beta2 2 --no-time --out "$RUNNER_TEMP/meshtv-k3"
# a header plus 2 noise levels x (L1-TV + 2 p values), each row with a finite PSNR
test "$(wc -l < "$RUNNER_TEMP/meshtv-k3/results.csv")" -eq 7
python -c "
import csv, math, sys
with open(sys.argv[1], newline='') as fh:
    rows = list(csv.DictReader(fh))
assert len(rows) == 6 and all(math.isfinite(float(r['psnr_db'])) for r in rows), rows
" "$RUNNER_TEMP/meshtv-k3/results.csv"
# the file-input path: an RGB icosphere(1) as mesh and image in one PLY
python -c "
import sys
import numpy as np
from meshtv.imaging import MeshImage, write_ply_with_image
from meshtv.synthetic import icosphere, two_patch_image
mesh = icosphere(1)
gray = two_patch_image(mesh).values[:, 0]
rgb = np.column_stack([gray, 1.0 - gray, np.full(mesh.n_vertices, 0.5)])
write_ply_with_image(sys.argv[1], mesh, MeshImage(rgb))
" "$RUNNER_TEMP/rgb.ply"
meshtv --mesh "$RUNNER_TEMP/rgb.ply" --image "$RUNNER_TEMP/rgb.ply" --trials 1 --no-time --out "$RUNNER_TEMP/meshtv-ply"
test "$(wc -l < "$RUNNER_TEMP/meshtv-ply/results.csv")" -eq 25
# the other input formats: a gray icosphere(1) as an OFF mesh and a text image
python -c "
import sys
import numpy as np
from meshtv.synthetic import icosphere, two_patch_image
mesh = icosphere(1)
with open(sys.argv[1], 'w') as fh:
    fh.write('OFF\\n%d %d 0\\n' % (mesh.n_vertices, mesh.n_triangles))
    np.savetxt(fh, mesh.vertices, fmt='%.17g')
    np.savetxt(fh, np.column_stack([np.full(mesh.n_triangles, 3), mesh.triangles]), fmt='%d')
np.savetxt(sys.argv[2], two_patch_image(mesh).values, fmt='%.17g')
" "$RUNNER_TEMP/gray.off" "$RUNNER_TEMP/gray.txt"
meshtv --mesh "$RUNNER_TEMP/gray.off" --image "$RUNNER_TEMP/gray.txt" --trials 1 --no-time --out "$RUNNER_TEMP/meshtv-off"
test "$(wc -l < "$RUNNER_TEMP/meshtv-off/results.csv")" -eq 25
# a binary PLY is refused: exit 1 with one error line and no traceback
python -c "
import struct, sys
header = ('ply\\nformat binary_little_endian 1.0\\nelement vertex 3\\n'
          'property float x\\nproperty float y\\nproperty float z\\n'
          'element face 1\\nproperty list uchar int vertex_indices\\nend_header\\n')
body = struct.pack('<9f', 0, 0, 0, 1, 0, 0, 0, 1, 0) + struct.pack('<B3i', 3, 0, 1, 2)
open(sys.argv[1], 'wb').write(header.encode() + body)
" "$RUNNER_TEMP/binary.ply"
status=0
meshtv --mesh "$RUNNER_TEMP/binary.ply" --image "$RUNNER_TEMP/binary.ply" --trials 1 --out "$RUNNER_TEMP/meshtv-binary" 2> "$RUNNER_TEMP/binary.err" || status=$?
cat "$RUNNER_TEMP/binary.err"
test "$status" -eq 1
test "$(wc -l < "$RUNNER_TEMP/binary.err")" -eq 1
grep -q "^error: only ASCII PLY is supported$" "$RUNNER_TEMP/binary.err"
# a triangle whose area overflows float64 is refused the same way, with no numpy warning
printf 'OFF\n3 1 0\n0 0 0\n1e200 0 0\n0 1e200 0\n3 0 1 2\n' > "$RUNNER_TEMP/huge.off"
printf '0.5\n0.5\n0.5\n' > "$RUNNER_TEMP/huge.txt"
status=0
meshtv --mesh "$RUNNER_TEMP/huge.off" --image "$RUNNER_TEMP/huge.txt" --trials 1 --out "$RUNNER_TEMP/meshtv-huge" 2> "$RUNNER_TEMP/huge.err" || status=$?
cat "$RUNNER_TEMP/huge.err"
test "$status" -eq 1
test "$(wc -l < "$RUNNER_TEMP/huge.err")" -eq 1
grep -q "^error: triangle 0 has coordinates too large to measure$" "$RUNNER_TEMP/huge.err"
# a text image that starts with a UTF-8 byte-order mark reads as without one
printf '\xef\xbb\xbf' | cat - "$RUNNER_TEMP/gray.txt" > "$RUNNER_TEMP/gray-bom.txt"
meshtv --mesh "$RUNNER_TEMP/gray.off" --image "$RUNNER_TEMP/gray-bom.txt" --trials 1 --no-time --out "$RUNNER_TEMP/meshtv-bom"
test "$(wc -l < "$RUNNER_TEMP/meshtv-bom/results.csv")" -eq 25
diff -r "$RUNNER_TEMP/meshtv-off/gray" "$RUNNER_TEMP/meshtv-bom/gray-bom"
# noise levels that print alike would overwrite each other's outputs: exit 2, nothing written
status=0
meshtv --synthetic icosphere_k=1,pattern=two_patch --trials 1 --noise-levels 0.1,0.1000001 --out "$RUNNER_TEMP/meshtv-alike" || status=$?
test "$status" -eq 2
test ! -e "$RUNNER_TEMP/meshtv-alike"
