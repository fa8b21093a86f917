    .secure
    .stack 256
    .entry main
main:
    li   r6, data
    movi r5, 0
loop:
    mov  r1, r5
    andi r1, 15
    shli r1, 2
    li   r2, table
    add  r2, r1
    ldw  r2, [r2]
    jmpr r2
case_0:
    shli r1, 2
    shli r2, 2
    sub  r3, r3
    sub  r3, r3
    mul  r3, r3
    subi r1, 23
    mov  r3, r5
    addi r3, 3
    andi r3, 63
    shli r3, 2
    mov  r4, r6
    add  r4, r3
    ldw  r1, [r4]
    xor  r1, r2
    stw  r1, [r4]
    call fn_0
    ori  r4, 80
    shli r3, 1
    jmp  next
case_1:
    shli r1, 3
    addi r3, 93
    mul  r4, r4
    ori  r1, 248
    shli r2, 2
    sub  r4, r1
    shri r2, 1
    mul  r1, r1
    mov  r3, r5
    addi r3, 33
    andi r3, 63
    shli r3, 2
    mov  r4, r6
    add  r4, r3
    ldw  r1, [r4]
    sub  r1, r2
    stw  r1, [r4]
    cmpi r3, 379
    jlt  skip_1
    ori  r3, 172
    addi r3, 59
    shri r2, 1
skip_1:
    add  r4, r4
    ori  r2, 14
    addi r3, 82
    addi r3, 77
    jmp  next
case_2:
    shri r1, 3
    shli r3, 3
    ori  r2, 134
    shli r2, 3
    subi r4, 90
    xor  r2, r3
    sub  r2, r4
    addi r4, 11
    mov  r3, r5
    addi r3, 48
    andi r3, 63
    shli r3, 2
    mov  r4, r6
    add  r4, r3
    ldw  r1, [r4]
    xor  r1, r2
    stw  r1, [r4]
    call fn_1
    subi r3, 95
    addi r3, 60
    mul  r2, r1
    jmp  next
case_3:
    andi r3, 64873
    xor  r1, r2
    ori  r2, 78
    shli r1, 1
    shri r4, 3
    sub  r2, r1
    mul  r4, r4
    shri r2, 3
    addi r3, 98
    mul  r2, r2
    mov  r3, r5
    addi r3, 52
    andi r3, 63
    shli r3, 2
    mov  r4, r6
    add  r4, r3
    ldw  r1, [r4]
    add  r1, r2
    stw  r1, [r4]
    cmpi r3, 440
    jlt  skip_3
    sub  r2, r1
    andi r4, 28857
    subi r4, 41
skip_3:
    ori  r2, 16
    add  r1, r4
    ori  r1, 223
    jmp  next
case_4:
    addi r1, 47
    mul  r1, r3
    subi r2, 9
    mul  r1, r4
    shli r1, 2
    mul  r3, r4
    add  r4, r2
    addi r1, 93
    shli r3, 3
    mov  r3, r5
    addi r3, 21
    andi r3, 63
    shli r3, 2
    mov  r4, r6
    add  r4, r3
    ldw  r1, [r4]
    xor  r1, r2
    stw  r1, [r4]
    call fn_2
    ori  r3, 62
    add  r2, r4
    jmp  next
case_5:
    shri r3, 2
    shri r2, 3
    ori  r2, 217
    subi r2, 97
    addi r1, 98
    sub  r1, r1
    mov  r3, r5
    addi r3, 26
    andi r3, 63
    shli r3, 2
    mov  r4, r6
    add  r4, r3
    ldw  r1, [r4]
    add  r1, r2
    stw  r1, [r4]
    cmpi r3, 515
    jlt  skip_5
    shri r3, 3
    shri r4, 1
    subi r2, 72
skip_5:
    shri r1, 1
    subi r4, 51
    andi r4, 49629
    shri r3, 1
    jmp  next
case_6:
    andi r1, 42019
    subi r3, 73
    subi r2, 74
    xor  r3, r3
    mul  r3, r1
    addi r2, 73
    xor  r1, r3
    sub  r1, r2
    mov  r3, r5
    addi r3, 0
    andi r3, 63
    shli r3, 2
    mov  r4, r6
    add  r4, r3
    ldw  r1, [r4]
    add  r1, r2
    stw  r1, [r4]
    call fn_3
    shri r2, 1
    ori  r3, 31
    sub  r4, r4
    shri r3, 3
    jmp  next
case_7:
    sub  r1, r3
    add  r2, r3
    addi r1, 94
    sub  r1, r1
    xor  r2, r1
    shli r3, 3
    addi r3, 88
    mov  r3, r5
    addi r3, 31
    andi r3, 63
    shli r3, 2
    mov  r4, r6
    add  r4, r3
    ldw  r1, [r4]
    xor  r1, r2
    stw  r1, [r4]
    cmpi r3, 679
    jlt  skip_7
    andi r3, 13131
    ori  r1, 134
    xor  r2, r4
skip_7:
    addi r3, 84
    sub  r2, r1
    add  r4, r1
    sub  r3, r2
    jmp  next
case_8:
    sub  r2, r1
    shli r1, 3
    ori  r3, 4
    shri r1, 3
    shli r1, 1
    andi r3, 15733
    shri r4, 1
    mov  r3, r5
    addi r3, 24
    andi r3, 63
    shli r3, 2
    mov  r4, r6
    add  r4, r3
    ldw  r1, [r4]
    xor  r1, r2
    stw  r1, [r4]
    call fn_4
    shli r3, 2
    subi r4, 39
    xor  r1, r1
    jmp  next
case_9:
    subi r2, 94
    subi r2, 1
    sub  r3, r2
    mul  r1, r3
    ori  r3, 47
    add  r1, r3
    add  r3, r3
    addi r1, 60
    mov  r3, r5
    addi r3, 31
    andi r3, 63
    shli r3, 2
    mov  r4, r6
    add  r4, r3
    ldw  r1, [r4]
    xor  r1, r2
    stw  r1, [r4]
    cmpi r3, 101
    jlt  skip_9
    shri r1, 2
    andi r2, 42104
    xor  r4, r3
skip_9:
    ori  r3, 6
    xor  r1, r3
    jmp  next
case_10:
    shli r4, 2
    shri r4, 3
    xor  r3, r2
    addi r3, 79
    subi r1, 86
    add  r2, r4
    subi r2, 19
    addi r1, 48
    mov  r3, r5
    addi r3, 1
    andi r3, 63
    shli r3, 2
    mov  r4, r6
    add  r4, r3
    ldw  r1, [r4]
    sub  r1, r2
    stw  r1, [r4]
    call fn_5
    add  r3, r1
    subi r2, 44
    mul  r1, r1
    jmp  next
case_11:
    shri r2, 3
    add  r1, r2
    add  r2, r3
    add  r3, r1
    addi r3, 31
    xor  r2, r2
    addi r3, 4
    mov  r3, r5
    addi r3, 38
    andi r3, 63
    shli r3, 2
    mov  r4, r6
    add  r4, r3
    ldw  r1, [r4]
    add  r1, r2
    stw  r1, [r4]
    cmpi r3, 41
    jlt  skip_11
    shli r1, 3
    shri r1, 3
    sub  r1, r1
skip_11:
    sub  r4, r1
    subi r3, 54
    andi r2, 2883
    jmp  next
case_12:
    sub  r1, r2
    sub  r4, r3
    shri r2, 1
    shli r3, 2
    ori  r4, 135
    sub  r2, r4
    shri r1, 3
    subi r1, 92
    mov  r3, r5
    addi r3, 1
    andi r3, 63
    shli r3, 2
    mov  r4, r6
    add  r4, r3
    ldw  r1, [r4]
    add  r1, r2
    stw  r1, [r4]
    call fn_0
    add  r2, r3
    ori  r3, 241
    jmp  next
case_13:
    andi r4, 330
    subi r4, 1
    ori  r3, 25
    add  r1, r1
    shri r3, 1
    addi r3, 93
    sub  r4, r3
    mov  r3, r5
    addi r3, 34
    andi r3, 63
    shli r3, 2
    mov  r4, r6
    add  r4, r3
    ldw  r1, [r4]
    add  r1, r2
    stw  r1, [r4]
    cmpi r3, 10
    jlt  skip_13
    andi r1, 26516
    add  r1, r3
    addi r2, 3
skip_13:
    sub  r1, r1
    subi r4, 82
    subi r2, 3
    jmp  next
case_14:
    subi r4, 50
    sub  r4, r3
    mul  r1, r3
    shri r3, 2
    sub  r4, r1
    xor  r3, r4
    ori  r4, 167
    andi r2, 28033
    mov  r3, r5
    addi r3, 42
    andi r3, 63
    shli r3, 2
    mov  r4, r6
    add  r4, r3
    ldw  r1, [r4]
    add  r1, r2
    stw  r1, [r4]
    call fn_1
    ori  r2, 118
    xor  r1, r2
    andi r3, 2127
    ori  r3, 152
    jmp  next
case_15:
    subi r3, 1
    add  r1, r1
    andi r2, 61296
    andi r2, 55174
    addi r2, 18
    add  r4, r1
    mov  r3, r5
    addi r3, 8
    andi r3, 63
    shli r3, 2
    mov  r4, r6
    add  r4, r3
    ldw  r1, [r4]
    sub  r1, r2
    stw  r1, [r4]
    cmpi r3, 440
    jlt  skip_15
    xor  r3, r2
    add  r2, r3
    xor  r2, r2
skip_15:
    xor  r1, r2
    addi r4, 49
    ori  r2, 210
    jmp  next
next:
    addi r5, 1
    mov  r1, r5
    andi r1, 31
    cmpi r1, 0
    jnz  loop
    movi r0, 1
    int  0x21
    jmp  loop
fn_0:
    push r4
    ori  r2, 52
    andi r4, 29962
    andi r4, 45652
    ori  r2, 192
    shli r2, 3
    andi r1, 18440
    shri r1, 2
    sub  r3, r1
    call fn_1
    pop  r4
    ret
fn_1:
    push r4
    mul  r1, r1
    ori  r3, 230
    sub  r3, r4
    addi r1, 36
    shri r3, 3
    andi r4, 11226
    add  r4, r4
    call fn_2
    pop  r4
    ret
fn_2:
    push r4
    subi r4, 56
    add  r1, r3
    andi r1, 18187
    shli r4, 3
    shli r1, 3
    andi r3, 37488
    ori  r1, 173
    pop  r4
    ret
fn_3:
    push r4
    shri r4, 2
    add  r4, r1
    andi r1, 15128
    shli r3, 2
    addi r1, 42
    sub  r1, r1
    call fn_4
    pop  r4
    ret
fn_4:
    push r4
    addi r3, 25
    shri r1, 2
    sub  r3, r1
    shli r3, 3
    shli r1, 2
    call fn_5
    pop  r4
    ret
fn_5:
    push r4
    shli r2, 1
    shli r1, 3
    xor  r1, r3
    subi r2, 40
    andi r4, 49155
    add  r4, r3
    pop  r4
    ret
data:
    .space 256
table:
    .word case_0, case_1, case_2, case_3, case_4, case_5, case_6, case_7, case_8, case_9, case_10, case_11, case_12, case_13, case_14, case_15
