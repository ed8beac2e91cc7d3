(* Two domains compute a CRC as their very first action, released
   together by a spin barrier.  Exits 0 when both get the standard check
   value, 1 otherwise (an exception in either domain is re-raised by
   [Domain.join] and also exits non-zero).  test_backend runs this in
   fresh processes, since the CRC table is shared process state built
   once per process. *)

let () =
  let arrived = Atomic.make 0 in
  let worker () =
    Atomic.incr arrived;
    while Atomic.get arrived < 2 do
      Domain.cpu_relax ()
    done;
    Bitstream.Crc.of_string "123456789"
  in
  let a = Domain.spawn worker and b = Domain.spawn worker in
  let ca = Domain.join a and cb = Domain.join b in
  exit (if ca = 0xCBF43926l && cb = 0xCBF43926l then 0 else 1)
