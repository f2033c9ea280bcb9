type pte = {
  valid : bool;
  writable : bool;
  dma : bool;
  device : bool;
  ppn : int;
}

let invalid_pte = { valid = false; writable = false; dma = false; device = false; ppn = 0 }

let encode p =
  (if p.valid then 1 else 0)
  lor (if p.writable then 2 else 0)
  lor (if p.dma then 4 else 0)
  lor (if p.device then 8 else 0)
  lor (p.ppn lsl 8)

let decode w =
  {
    valid = w land 1 <> 0;
    writable = w land 2 <> 0;
    dma = w land 4 <> 0;
    device = w land 8 <> 0;
    ppn = w lsr 8;
  }

let page_shift = Mem.page_shift
let page_size = 1 lsl page_shift

type table = { base : int; npages : int }

let table_words t = t.npages

let check_vpn t vpn =
  if vpn < 0 || vpn >= t.npages then
    invalid_arg (Printf.sprintf "Page_table: vpn %d out of range" vpn)

let set mem t ~vpn pte =
  check_vpn t vpn;
  Mem.write mem (t.base + vpn) (encode pte)

let get mem t ~vpn =
  check_vpn t vpn;
  decode (Mem.read mem (t.base + vpn))

let clear mem t = Mem.fill mem ~addr:t.base ~len:t.npages 0

(* Spare software bit (bit 4): dirty mirror. [encode]/[decode] ignore
   it, so rebuilding an entry from its record clears the mirror —
   exactly like an OS software bit the MMU never sets on its own. *)
let dirty_bit = 16

let set_dirty mem t ~vpn =
  check_vpn t vpn;
  let a = t.base + vpn in
  Mem.write mem a (Mem.read mem a lor dirty_bit)

let is_dirty mem t ~vpn =
  check_vpn t vpn;
  Mem.read mem (t.base + vpn) land dirty_bit <> 0

let clear_all_dirty mem t =
  for vpn = 0 to t.npages - 1 do
    let a = t.base + vpn in
    let w = Mem.read mem a in
    if w land dirty_bit <> 0 then Mem.write mem a (w land lnot dirty_bit)
  done

let mirror_dirty mem t =
  let marked = ref 0 in
  for vpn = 0 to t.npages - 1 do
    let a = t.base + vpn in
    let w = Mem.read mem a in
    if w land 1 <> 0 && w land 8 = 0 then begin
      let phys = (w lsr 8) lsl page_shift in
      if
        phys >= 0
        && phys < Mem.size mem
        && Mem.page_is_dirty mem ~addr:phys
        && w land dirty_bit = 0
      then begin
        Mem.write mem a (w lor dirty_bit);
        incr marked
      end
    end
  done;
  !marked

type resolution =
  | Phys of int
  | Device of int * int
  | No_mapping
  | Not_writable

let vpn_of vaddr = vaddr lsr page_shift
let offset_of vaddr = vaddr land (page_size - 1)

(* Both walks test the PTE word's bits directly, with no {!pte}
   record: translation runs on every simulated memory access. *)
let translate mem t ~vaddr ~write =
  let vpn = vpn_of vaddr in
  if vaddr < 0 || vpn >= t.npages then No_mapping
  else
    let w = Mem.read mem (t.base + vpn) in
    if w land 1 = 0 then No_mapping
    else if write && w land 2 = 0 then Not_writable
    else
      let off = offset_of vaddr in
      if w land 8 <> 0 then Device (w lsr 8, off)
      else Phys (((w lsr 8) lsl page_shift) lor off)

let phys mem t ~vaddr ~write =
  let vpn = vpn_of vaddr in
  if vaddr < 0 || vpn >= t.npages then -1
  else
    let w = Mem.read mem (t.base + vpn) in
    if w land 1 = 0 || (write && w land 2 = 0) || w land 8 <> 0 then -1
    else
      (* A corrupted frame number can wrap the address negative; that
         too is left to [translate], whose [Phys] carries it as-is. *)
      ((w lsr 8) lsl page_shift) lor offset_of vaddr
